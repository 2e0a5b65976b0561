"""Exact finite-field model: PGL_n orbits on projectivized n x n matrices.

The compactified group is modeled as P(M_n(F_q)): every nonzero n x n matrix
over the prime field, normalized so the first nonzero entry in row-major order
equals 1.  The upper and lower Borel subgroups act by (p, b) . [m] = [p m b^-1];
orbits are computed from scratch under generator actions (elementary
transvections plus diagonal torus generators) — no label combinatorics enters
the partition.

The orbit engine codes each point as a big-endian base-q integer, turns each
generator into a numpy permutation table of point indices (one vectorized
multiply, normalize and look-up over the whole point stack), and takes the
connected components of the tables by min-label propagation with pointer
jumping.  It uses numpy only: scipy's csgraph would do the last step, but
importing it adds more time and nearly as much memory as a whole (3,3) run.

The stratum base point b_I is the diagonal 0/1 idempotent supported on the
TRAILING block of the composition of n cut out by I (positions i, i+1 merge
iff simple root i lies in I; I = full set gives the identity).  That is the
actual limit of a dominant cocharacter: diag(t^{a_1}, ..., t^{a_n}) with
a_1 >= ... >= a_n, constant exactly on I-blocks, normalized projectively by
t^{a_n}, sends every earlier block to 0 as t -> 0.  Labels then pick the
representative perm(sigma*rho) . b_I . perm(tau)^-1 with permutation matrices
P[i][j] = [i == w(j)].

For n = 2 the model is the honest compactification and the label -> orbit map
is a bijection with exact point counts.  For n = 3 the standard representation
is not regular, P(M_3) is only the blow-DOWN of the compactification (the
rank-1 locus absorbs a whole collapsed stratum), so distinct labels share
orbits; `matching_report` records the collisions instead of pretending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .coxeter import build_root_system, cartan_matrix, word_str
from .orbit_model import (
    enumerate_orbits,
    label_str,
    point_count_poly,
    poly_eval,
)

__all__ = [
    "MatchReport",
    "GroupCellReport",
    "enumerate_points",
    "orbit_partition",
    "base_point_matrix",
    "matching_report",
    "verify_group_cells",
    "orbit_dump",
]

SUPPORTED_Q = (2, 3, 5)


def _check_nq(n, q):
    if n not in (2, 3):
        raise ValueError("matrix model supports n in {2, 3}")
    if q not in SUPPORTED_Q:
        raise ValueError("matrix model supports prime q in %r" % (SUPPORTED_Q,))


def _normalize(rows, q):
    """Scale so the first nonzero entry (row-major) is 1; None for the zero matrix."""
    flat = [c % q for row in rows for c in row]
    lead = next((c for c in flat if c), None)
    if lead is None:
        return None
    if lead != 1:
        inv = pow(lead, q - 2, q)
        flat = [(c * inv) % q for c in flat]
    n = len(rows)
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def _matmul(a, b, q):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _inv_mat(m, q):
    """Inverse over F_q by Gauss-Jordan elimination; None if singular."""
    n = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % q), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col] % q, q - 2, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] % q:
                f = a[r][col] % q
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _det(m, q):
    """Determinant over F_q by the exact integer Leibniz sum.

    m is one matrix or a stack of them; the result has the stack's shape.
    """
    a = np.asarray(m, dtype=np.int32)
    n = a.shape[-1]
    det = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term = term * a[..., i, j]
        det = det + term
    return det % q


def _primitive_root(q):
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = (x * g) % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    return 1  # q = 2


def _borel_generators(n, q, upper):
    """Transvections and torus generators of the (upper or lower) Borel."""
    gens = []
    for i in range(n):
        for j in range(n):
            if (j > i) if upper else (j < i):
                t = [list(row) for row in _identity(n)]
                t[i][j] = 1
                gens.append(tuple(tuple(r) for r in t))
    g = _primitive_root(q)
    if g != 1:
        for i in range(n):
            t = [list(row) for row in _identity(n)]
            t[i][i] = g
            gens.append(tuple(tuple(r) for r in t))
    return gens


def _point_stack(n, q):
    """The points of `enumerate_points` as rows of an (N, n*n) int8 array."""
    total = n * n
    blocks = []
    for lead in range(total):
        free = total - lead - 1
        tail = np.arange(q ** free)
        block = np.zeros((q ** free, total), dtype=np.int8)
        block[:, lead] = 1
        for k in range(free):
            block[:, lead + 1 + k] = tail // q ** k % q
        blocks.append(block)
    return np.concatenate(blocks)


def enumerate_points(n, q):
    """All (q^(n*n)-1)/(q-1) normalized points, in enumeration order.

    Generated directly in normal form: the first nonzero entry (row-major) is
    pinned to 1, entries before it to 0, later entries run free.  Points come
    by the position of that entry, then by the later entries read as a base-q
    number whose least significant digit is the first of them.  Points share
    their row tuples: there are only q^n distinct rows.
    """
    _check_nq(n, q)
    rows = list(itertools.product(range(q), repeat=n))  # indexed by big-endian code
    row_codes = _point_stack(n, q).reshape(-1, n, n) @ q ** np.arange(n - 1, -1, -1)
    # zip the n columns of row tuples into points
    return list(zip(*(map(rows.__getitem__, col) for col in row_codes.T.tolist())))


def orbit_partition(n, q):
    """Partition of all points into upper x lower Borel orbits.

    Each generator becomes a permutation table of point indices: the whole
    point stack is multiplied mod q in one step, normalized, coded as a
    big-endian base-q integer and looked up.  The orbits are the connected
    components of those tables, found by min-label propagation with pointer
    jumping; each point ends up labelled by the smallest enumeration index in
    its orbit.

    Returns (orbits, point_to_orbit): orbits is a list of sorted point tuples,
    ordered by their first point in enumeration order; point_to_orbit maps each
    point to its orbit index.  Deterministic.
    """
    _check_nq(n, q)
    points = enumerate_points(n, q)
    count = len(points)
    # int8 holds every entry of a product of two reduced matrices: n(q-1)^2 <= 48
    stack = _point_stack(n, q).reshape(count, n, n)
    # big-endian digits: numeric order of codes is tuple order of points
    place = q ** np.arange(n * n - 1, -1, -1, dtype=np.int32)
    code = stack.reshape(count, n * n) @ place
    index = np.zeros(q ** (n * n), dtype=np.int32)
    ids = np.arange(count, dtype=np.int32)
    index[code] = ids
    inverse = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)], dtype=np.int8)
    left = [np.array(g, dtype=np.int8) for g in _borel_generators(n, q, True)]
    right = [  # act by m -> m g^{-1}
        np.array(_inv_mat(g, q), dtype=np.int8) for g in _borel_generators(n, q, False)
    ]
    tables = []
    for image in itertools.chain((g @ stack for g in left), (stack @ h for h in right)):
        flat = image.reshape(count, n * n) % q
        lead = flat[ids, (flat != 0).argmax(axis=1)]
        t = index[(flat * inverse[lead][:, None] % q) @ place]
        back = np.empty_like(t)
        back[t] = ids
        tables += [t, back]
    label = ids
    while True:
        new = label
        for t in tables:
            new = np.minimum(new, new[t])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, oid = np.unique(label, return_inverse=True)
    order = np.lexsort((code, oid)).tolist()
    orbits = []
    start = 0
    for size in np.bincount(oid).tolist():
        orbits.append(tuple(points[i] for i in order[start : start + size]))
        start += size
    return orbits, dict(zip(points, oid.tolist()))


def base_point_matrix(n, q, I):
    """The stratum base point: 1s on the trailing block of the composition of n
    defined by I (0-based simple indices; positions i, i+1 merge iff i in I)."""
    _check_nq(n, q)
    I = set(I)
    start = 0  # start of the current (final) block
    for i in range(n - 1):
        if i not in I:
            start = i + 1
    rows = [[1 if (i == j and i >= start) else 0 for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in rows)


def _coord_permutation(w, n):
    """The permutation of {0..n-1} realized by a Weyl element of A_{n-1}
    (simple reflection i = transposition (i, i+1))."""
    p = list(range(n))
    for c in w.word:
        t = list(range(n))
        t[c], t[c + 1] = t[c + 1], t[c]
        p = [p[t[x]] for x in range(n)]
    return p


def _perm_matrix(p):
    n = len(p)
    return tuple(tuple(1 if i == p[j] else 0 for j in range(n)) for i in range(n))


def representative_point(n, q, O):
    """perm(sigma*rho) . b_I . perm(tau)^{-1}, the point the label names."""
    b = base_point_matrix(n, q, O.I)
    pa = _coord_permutation(O.sigma * O.rho, n)
    pt = _coord_permutation(O.tau, n)
    pt_inv = [0] * n
    for i, x in enumerate(pt):
        pt_inv[x] = i
    m = _matmul(_perm_matrix(pa), _matmul(b, _perm_matrix(pt_inv), q), q)
    return _normalize(m, q)


@dataclass
class MatchReport:
    """Label -> orbit matching outcome, with every failure made explicit."""

    n: int
    q: int
    label_count: int
    orbit_count: int
    mapping: dict  # OrbitLabel -> orbit index
    collisions: list  # [(orbit index, [label strings])] when labels share an orbit
    unmatched_orbits: list  # orbit indices hit by no label
    size_mismatches: list  # [(label string, actual, expected)]
    total_points: int

    @property
    def bijective(self):
        return (
            not self.collisions
            and not self.unmatched_orbits
            and self.label_count == self.orbit_count
        )

    @property
    def ok(self):
        return self.bijective and not self.size_mismatches


def matching_report(n, q, partition=None):
    """Match every label to the orbit of its representative; report everything."""
    _check_nq(n, q)
    orbits, point_to_orbit = partition or orbit_partition(n, q)
    rs = build_root_system(cartan_matrix("A%d" % (n - 1)))
    labels = enumerate_orbits(rs)
    mapping = {}
    hits = {}
    size_mismatches = []
    for O in labels:
        oid = point_to_orbit[representative_point(n, q, O)]
        mapping[O] = oid
        hits.setdefault(oid, []).append(O)
        expected = poly_eval(point_count_poly(O), q)
        if len(orbits[oid]) != expected:
            size_mismatches.append((label_str(O), len(orbits[oid]), expected))
    collisions = [
        (oid, [label_str(O) for O in Os]) for oid, Os in sorted(hits.items()) if len(Os) > 1
    ]
    unmatched = [oid for oid in range(len(orbits)) if oid not in hits]
    return MatchReport(
        n=n,
        q=q,
        label_count=len(labels),
        orbit_count=len(orbits),
        mapping=mapping,
        collisions=collisions,
        unmatched_orbits=unmatched,
        size_mismatches=size_mismatches,
        total_points=sum(len(o) for o in orbits),
    )


@dataclass
class GroupCellReport:
    """Bruhat decomposition of the invertible points, checked cell by cell."""

    n: int
    q: int
    cells: list = field(default_factory=list)  # (rho word, size, expected)
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    @property
    def group_order(self):
        return sum(size for _, size, _ in self.cells)


def verify_group_cells(n, q, partition=None):
    """Check that invertible points fall into |W| orbits of the predicted sizes.

    The cells are the orbits of the labels (Delta, e, e, rho); each must have
    q^(2N - l(rho)) (q-1)^(n-1) points and they must exhaust the invertibles.
    """
    _check_nq(n, q)
    orbits, point_to_orbit = partition or orbit_partition(n, q)
    rs = build_root_system(cartan_matrix("A%d" % (n - 1)))
    delta = tuple(range(rs.rank))
    report = GroupCellReport(n=n, q=q)
    count = len(point_to_orbit)
    # fromiter fills the stack in place; np.array on nested tuples peaks higher
    entries = itertools.chain.from_iterable(itertools.chain.from_iterable(point_to_orbit))
    stack = np.fromiter(entries, dtype=np.int32, count=count * n * n)
    dets = _det(stack.reshape(count, n, n), q)
    oids = np.fromiter(point_to_orbit.values(), dtype=np.int32, count=count)
    invertible_ids = set(oids[dets != 0].tolist())
    seen_ids = set()
    for O in enumerate_orbits(rs, delta):
        oid = point_to_orbit[representative_point(n, q, O)]
        seen_ids.add(oid)
        size = len(orbits[oid])
        expected = poly_eval(point_count_poly(O), q)
        report.cells.append((word_str(O.rho), size, expected))
        if size != expected:
            report.mismatches.append(
                "cell rho=%s has %d points, expected %d"
                % (word_str(O.rho), size, expected)
            )
        if oid not in invertible_ids:
            report.mismatches.append(
                "cell rho=%s is not made of invertible matrices" % word_str(O.rho)
            )
    if seen_ids != invertible_ids:
        report.mismatches.append(
            "invertible points fall into %d orbits, expected %d"
            % (len(invertible_ids), len(seen_ids))
        )
    return report


def orbit_dump(n, q, partition=None):
    """JSON-friendly dump: per orbit, its label (if matched), size, representative."""
    partition = partition or orbit_partition(n, q)
    orbits, _ = partition
    report = matching_report(n, q, partition)
    by_orbit = {}
    for O, oid in report.mapping.items():
        by_orbit.setdefault(oid, []).append(label_str(O))
    out = []
    for oid, members in enumerate(orbits):
        out.append(
            {
                "labels": sorted(by_orbit.get(oid, [])),
                "size": len(members),
                "representative": [list(row) for row in members[0]],
            }
        )
    return out

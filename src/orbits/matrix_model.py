"""Exact finite-field model: PGL_n orbits on projectivized n x n matrices.

The compactified group is modeled as P(M_n(F_q)): every nonzero n x n matrix
over the prime field, normalized so the first nonzero entry in row-major order
equals 1.  The upper and lower Borel subgroups act by (p, b) . [m] = [p m b^-1];
orbits are computed from scratch under generator actions (elementary
transvections plus diagonal torus generators) — no label combinatorics enters
the partition.

A point is coded end to end as one integer: its entries, row-major, read as a
big-endian base-q number.  Points, orbits, orbit look-ups and label
representatives are all codes; matrices are decoded only to be multiplied,
for determinants, and for the per-orbit dump.  The orbit engine turns each
generator into a numpy permutation table of point indices (one vectorized
multiply, normalize and look-up over the decoded point stack), and takes the
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

SUPPORTED_N = (2, 3)
SUPPORTED_Q = (2, 3, 5)


def _check_nq(n, q):
    if n not in SUPPORTED_N:
        raise ValueError("matrix model supports n in %r" % (SUPPORTED_N,))
    if q not in SUPPORTED_Q:
        raise ValueError("matrix model supports prime q in %r" % (SUPPORTED_Q,))


def _place(n, q):
    """Place values of the n*n entries, row-major, in a big-endian base-q code."""
    return q ** np.arange(n * n - 1, -1, -1, dtype=np.int32)


def _decode(codes, n, q):
    """The entries of codes as an (N, n, n) int8 stack."""
    digits = np.asarray(codes, dtype=np.int32)[:, None] // _place(n, q) % q
    return digits.astype(np.int8).reshape(-1, n, n)


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
    """Transvections and torus generators of the (upper or lower) Borel, as
    int8 matrices."""
    gens = []
    for i, j in itertools.product(range(n), repeat=2):
        if (j > i) if upper else (j < i):
            t = np.eye(n, dtype=np.int8)
            t[i, j] = 1
            gens.append(t)
    g = _primitive_root(q)
    if g != 1:
        for i in range(n):
            t = np.eye(n, dtype=np.int8)
            t[i, i] = g
            gens.append(t)
    return gens


def enumerate_points(n, q):
    """The codes of all (q^(n*n)-1)/(q-1) normalized points, in enumeration
    order, as an int32 array.

    A point is coded by its n*n entries read row-major as a big-endian base-q
    number, so numeric order of codes is lexicographic order of matrices.  The
    points are generated in normal form: the first nonzero entry is pinned to
    1, entries before it to 0, later entries run free.  They come by the
    position of that entry, then by the later entries read as a base-q number
    whose least significant digit is the first of them.

    >>> codes = enumerate_points(2, 2)
    >>> codes[:4].tolist()
    [8, 12, 10, 14]
    >>> _decode(codes[:4], 2, 2).tolist()
    [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[1, 0], [1, 0]], [[1, 1], [1, 0]]]
    """
    _check_nq(n, q)
    blocks = []
    for free in range(n * n - 1, -1, -1):
        tail = np.arange(q ** free, dtype=np.int32)
        code = np.full_like(tail, q ** free)  # the leading 1
        for k in range(free):
            code += tail // q ** k % q * q ** (free - 1 - k)
        blocks.append(code)
    return np.concatenate(blocks)


def orbit_partition(n, q):
    """Partition of all points into upper x lower Borel orbits, on codes.

    Each generator becomes a permutation table of point indices: the whole
    decoded point stack is multiplied mod q in one step, normalized, coded
    and looked up; the lower Borel acts on the right.  Each table has finite
    order, so the forward tables alone close every orbit: the orbits are
    their connected components, found by min-label propagation with pointer
    jumping, and each point ends up labelled by the smallest enumeration
    index in its orbit.

    Returns (orbits, orbit_of): orbits[k] is the sorted int32 code array of
    orbit k, with orbits ordered by their first point in enumeration order;
    orbit_of maps every code in range(q**(n*n)) to its orbit index, or -1 for
    a code that is not a normalized point.  Deterministic.
    """
    code = enumerate_points(n, q)
    count = len(code)
    # int8 holds every entry of a product of two reduced matrices: n(q-1)^2 <= 48
    stack = _decode(code, n, q)
    place = _place(n, q)
    index = np.full(q ** (n * n), -1, dtype=np.int32)
    ids = np.arange(count, dtype=np.int32)
    index[code] = ids
    inverse = np.array([0] + [pow(c, q - 2, q) for c in range(1, q)], dtype=np.int8)
    left = _borel_generators(n, q, True)
    right = _borel_generators(n, q, False)
    tables = []
    for image in itertools.chain((g @ stack for g in left), (stack @ h for h in right)):
        flat = image.reshape(count, n * n) % q
        lead = flat[ids, (flat != 0).argmax(axis=1)]
        tables.append(index[(flat * inverse[lead][:, None] % q) @ place])
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
    members = code[np.lexsort((code, oid))]
    orbits = np.split(members, np.cumsum(np.bincount(oid))[:-1])
    orbit_of = index
    orbit_of[code] = oid
    return orbits, orbit_of


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


def representative_point(n, q, O):
    """The code of perm(sigma*rho) . b_I . perm(tau)^{-1}, the point the label
    names.

    With a = sigma*rho and t = tau as coordinate permutations, the product is
    the 0/1 partial permutation matrix with 1s at (a(k), t(k)) for k in the
    trailing block of b_I, so it is already in normal form.
    """
    b = base_point_matrix(n, q, O.I)
    a = _coord_permutation(O.sigma * O.rho, n)
    t = _coord_permutation(O.tau, n)
    return sum(q ** (n * n - 1 - a[k] * n - t[k]) for k in range(n) if b[k][k])


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
    orbits, orbit_of = partition or orbit_partition(n, q)
    rs = build_root_system(cartan_matrix("A%d" % (n - 1)))
    labels = enumerate_orbits(rs)
    mapping = {}
    hits = {}
    size_mismatches = []
    for O in labels:
        oid = int(orbit_of[representative_point(n, q, O)])
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
    orbits, orbit_of = partition or orbit_partition(n, q)
    rs = build_root_system(cartan_matrix("A%d" % (n - 1)))
    delta = tuple(range(rs.rank))
    report = GroupCellReport(n=n, q=q)
    codes = np.flatnonzero(orbit_of >= 0)
    dets = _det(_decode(codes, n, q), q)
    invertible_ids = set(orbit_of[codes[dets != 0]].tolist())
    seen_ids = set()
    for O in enumerate_orbits(rs, delta):
        oid = int(orbit_of[representative_point(n, q, O)])
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


def orbit_dump(orbits, report):
    """JSON-friendly dump: per orbit, its labels (if matched), size, and its
    first point as a matrix.  report is the `matching_report` of the same
    partition."""
    by_orbit = {}
    for O, oid in report.mapping.items():
        by_orbit.setdefault(oid, []).append(label_str(O))
    firsts = _decode([members[0] for members in orbits], report.n, report.q)
    return [
        {
            "labels": sorted(by_orbit.get(oid, [])),
            "size": len(members),
            "representative": first.tolist(),
        }
        for oid, (members, first) in enumerate(zip(orbits, firsts))
    ]

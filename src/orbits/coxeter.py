"""Finite Weyl groups from Cartan matrices: roots, reduced words, Bruhat order, cosets.

Roots are integer coefficient vectors over the simple basis.  With Cartan matrix
convention C[i][j] = <alpha_j, alpha_i^vee>, the simple reflection s_i acts by

    s_i(v) = v - (sum_j v[j] * C[i][j]) * alpha_i,

which changes only coordinate i.  The full root set is the closure of the simple
roots under these reflections; it is finite exactly when the symmetrized Cartan
matrix is positive definite, and every root is then either nonnegative or
nonpositive in all coordinates.

A group element is stored as the signed permutation it induces on the
non-divisible positive roots (w(alpha_r) = +/- alpha_{r'}).  This determines the
element, composes in O(#roots), and reads off the length as the number of sign
changes:  l(w) = #{alpha > 0 : w(alpha) < 0}.  The canonical reduced word is the
lexicographically least one: the least left descent i of w (w^{-1}(alpha_i) < 0)
followed by the word of s_i * w.  ShortLex order means (length, word).
`enumerate_group` lists W in it by lengths: s_i * w, longer than w and with least
left descent i, has the word (i,) + w.word, and taking i first, then w in order,
keeps each length sorted.  `greedy_word` finds the word of any other element.

Non-reduced systems are supported through `nonreduced` marks on simple roots:
the reflection group is that of the underlying reduced system, and each root in
the Weyl orbit of a marked simple acquires a double 2*alpha in `positive_roots`.
Group operations never see the doubles; only weight functions may.

Weighted length sums a W-invariant positive weight over the non-divisible
positive roots that w sends negative, d(w) = sum(c(alpha) : alpha > 0,
w(alpha) < 0); with unit weights d = l on reduced systems, and
d(uv) = d(u) + d(v) whenever lengths add.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

__all__ = [
    "RootSystem",
    "WeylElement",
    "WeightFunction",
    "WeylTables",
    "CapExceeded",
    "DESCENT_IN_WJ",
    "ASCENT_IN_WJ",
    "EXCHANGE",
    "build_root_system",
    "cartan_matrix",
    "system_from_spec",
    "bruhat_leq",
    "bruhat_leq_subword",
    "longest_element",
    "coset_decompose",
    "min_coset_reps",
    "in_parabolic",
    "parabolic_trichotomy",
    "weighted_length",
    "enumerate_group",
    "greedy_word",
    "word_str",
    "parse_word",
]

DEFAULT_CAP = 10 ** 6

# parabolic_trichotomy cases
DESCENT_IN_WJ = "descent"
ASCENT_IN_WJ = "ascent"
EXCHANGE = "exchange"


class CapExceeded(RuntimeError):
    """Raised when a group enumeration would exceed the configured cap."""


def _validate_cartan(cartan):
    """Check finite type; raise ValueError naming the failing test."""
    n = len(cartan)
    for row in cartan:
        if len(row) != n:
            raise ValueError("Cartan matrix must be square")
    for i in range(n):
        for j in range(n):
            a = cartan[i][j]
            if a != int(a):
                raise ValueError("Cartan entries must be integers")
            if i == j and a != 2:
                raise ValueError("Cartan diagonal entries must equal 2")
            if i != j and a > 0:
                raise ValueError("Cartan off-diagonal entries must be <= 0")
            if i != j and (a == 0) != (cartan[j][i] == 0):
                raise ValueError(
                    "Cartan zero pattern must be symmetric (C[%d][%d] vs C[%d][%d])"
                    % (i, j, j, i)
                )
    # Symmetrize: find d_i > 0 with d_i C_ij = d_j C_ji, by propagation along edges.
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or cartan[i][j] == 0:
                    continue
                dj = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise ValueError("Cartan matrix is not symmetrizable")
    sym = [[d[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    # Sylvester's test in exact arithmetic: one elimination without row swaps,
    # where leading minor k is the product of the first k pivots.  While every
    # earlier minor is positive, every earlier pivot is too, so no pivot is 0.
    det = Fraction(1)
    for k in range(n):
        det *= sym[k][k]
        if det <= 0:
            raise ValueError(
                "not finite type: leading principal minor %d of the symmetrized "
                "Cartan matrix is %s <= 0" % (k + 1, det)
            )
        for r in range(k + 1, n):
            f = sym[r][k] / sym[k][k]
            for c in range(k + 1, n):
                sym[r][c] -= f * sym[k][c]


class RootSystem:
    """Root system plus Weyl-group machinery built from a Cartan matrix.

    Public fields: rank, cartan, positive_roots (non-divisible first, doubles
    appended), nondivisible_positive, doubled (non-divisible root -> its double),
    simple_roots.
    """

    def __init__(self, cartan, nonreduced=()):
        cartan = tuple(tuple(int(a) for a in row) for row in cartan)
        _validate_cartan(cartan)
        self.cartan = cartan
        self.rank = len(cartan)
        nonreduced = frozenset(int(i) for i in nonreduced)
        for i in nonreduced:
            if not 0 <= i < self.rank:
                raise ValueError("nonreduced mark %r is not a simple index" % (i,))

        simples = [
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        ]
        self.simple_roots = tuple(simples)
        # s_i negates alpha_i and permutes the other positive roots, so the
        # closure of the simples stays among positive roots.  images[k][i] is
        # the discovery number of s_i(roots[k]), or None when that is -alpha_i.
        roots = list(simples)
        found = {v: k for k, v in enumerate(roots)}
        images = []
        for v in roots:  # the list grows while it is walked
            row = []
            for i in range(self.rank):
                w = self._reflect_vector(v, i)
                if w[i] < 0:
                    row.append(None)
                    continue
                if w not in found:
                    found[w] = len(roots)
                    roots.append(w)
                row.append(found[w])
            images.append(row)
            if len(roots) > 100000:  # unreachable after validation; safety net
                raise ValueError("root generation did not terminate")
        positives = sorted(roots, key=lambda v: (sum(v), v))
        self.nondivisible_positive = tuple(positives)
        self._root_index = {v: r for r, v in enumerate(positives)}
        self._support_mask = tuple(
            sum(1 << j for j, c in enumerate(v) if c) for v in positives
        )
        self._simple_index = tuple(self._root_index[s] for s in simples)

        # signed permutation of each simple reflection on non-divisible positives
        at = [self._root_index[v] for v in roots]
        rows = [images[found[v]] for v in positives]
        self._simple_perm = tuple(
            tuple(-(r + 1) if row[i] is None else at[row[i]] + 1 for r, row in enumerate(rows))
            for i in range(self.rank)
        )

        # doubled bookkeeping: the Weyl orbit of each marked simple gets 2*alpha
        self._orbits = None
        marked = {self._simple_index[i] for i in nonreduced}
        doubled = sorted(r for o in self.root_orbits() if marked & set(o) for r in o)
        self.doubled = {positives[r]: tuple(2 * c for c in positives[r]) for r in doubled}
        self.positive_roots = self.nondivisible_positive + tuple(
            sorted(self.doubled.values(), key=lambda v: (sum(v), v))
        )

        self.identity = WeylElement(
            self, tuple(r + 1 for r in range(len(positives)))
        )
        self._simple_elements = tuple(
            WeylElement(self, self._simple_perm[i]) for i in range(self.rank)
        )
        self._elements = None
        self._tables = None

    def _reflect_vector(self, v, i):
        pairing = sum(v[j] * self.cartan[i][j] for j in range(self.rank))
        return v[:i] + (v[i] - pairing,) + v[i + 1 :]

    def simple_reflection(self, i):
        return self._simple_elements[i]

    def num_positive(self):
        """|Phi^+_nd|, the length of the longest element."""
        return len(self.nondivisible_positive)

    def root_orbits(self):
        """Partition of non-divisible positive root indices into W-orbits."""
        if self._orbits is None:
            seen = [False] * len(self.nondivisible_positive)
            orbits = []
            for r in range(len(seen)):
                if seen[r]:
                    continue
                orbit = {r}
                stack = [r]
                seen[r] = True
                while stack:
                    a = stack.pop()
                    for tab in self._simple_perm:
                        b = abs(tab[a]) - 1
                        if not seen[b]:
                            seen[b] = True
                            orbit.add(b)
                            stack.append(b)
                orbits.append(tuple(sorted(orbit)))
            self._orbits = tuple(orbits)
        return self._orbits

    def tables(self, cap=DEFAULT_CAP):
        """Indexed tables over the full (enumerated) group; cached.

        Raises CapExceeded when the group has more than `cap` elements, also
        when the tables were built earlier under a larger cap.
        """
        enumerate_group(self, cap)
        if self._tables is None:
            self._tables = WeylTables(self, cap)
        return self._tables

    def __repr__(self):
        return "RootSystem(rank=%d, positive=%d)" % (
            self.rank,
            len(self.positive_roots),
        )


class WeylElement:
    """Group element as a signed permutation of non-divisible positive roots.

    perm[r] = +(r'+1) if w(alpha_r) = alpha_{r'}, and -(r'+1) if it equals
    -alpha_{r'}.  Equality and hashing go through perm; `word` is the canonical
    (lex-least) reduced word, set by `enumerate_group` or computed on demand.
    """

    __slots__ = ("system", "perm", "_len", "_word", "_hash")

    def __init__(self, system, perm):
        self.system = system
        self.perm = perm
        self._len = None
        self._word = None
        self._hash = None

    @property
    def length(self):
        if self._len is None:
            self._len = sum(1 for p in self.perm if p < 0)
        return self._len

    @property
    def word(self):
        """Canonical reduced word as a tuple of 0-based simple indices."""
        if self._word is None:
            self._word = greedy_word(self, range(self.system.rank))
        return self._word

    def image_of_simple(self, i):
        """Signed root index of w(alpha_i): +/- (index into nondivisible_positive + 1)."""
        return self.perm[self.system._simple_index[i]]

    def sends_positive(self, i):
        """True iff w(alpha_i) > 0."""
        return self.perm[self.system._simple_index[i]] > 0

    def inverse(self):
        inv = [0] * len(self.perm)
        for r, p in enumerate(self.perm):
            if p > 0:
                inv[p - 1] = r + 1
            else:
                inv[-p - 1] = -(r + 1)
        return WeylElement(self.system, tuple(inv))

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if other.system is not self.system:
            raise ValueError("elements belong to different root systems")
        pu, pv = self.perm, other.perm
        out = []
        for p in pv:
            if p > 0:
                out.append(pu[p - 1])
            else:
                out.append(-pu[-p - 1])
        return WeylElement(self.system, tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and other.system is self.system
            and other.perm == self.perm
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.perm)
        return self._hash

    def __repr__(self):
        return "<w %s>" % word_str(self)


class WeightFunction:
    """W-invariant positive integer weights on non-divisible positive roots."""

    def __init__(self, system, values):
        values = tuple(int(v) for v in values)
        if len(values) != len(system.nondivisible_positive):
            raise ValueError("need one weight per non-divisible positive root")
        if any(v <= 0 for v in values):
            raise ValueError("weights must be positive")
        for orbit in system.root_orbits():
            if len({values[r] for r in orbit}) > 1:
                raise ValueError(
                    "weights must be constant on W-orbits (orbit of root %d is not)"
                    % orbit[0]
                )
        self.system = system
        self.values = values

    @classmethod
    def unit(cls, system):
        return cls(system, (1,) * len(system.nondivisible_positive))

    @classmethod
    def from_orbit_weights(cls, system, orbit_weights):
        """Build from {root index: weight}; the weight spreads over that root's
        W-orbit; unnamed orbits default to 1."""
        values = [1] * len(system.nondivisible_positive)
        for key, v in orbit_weights.items():
            r = int(key)
            if not 0 <= r < len(values):
                raise ValueError("root index %r out of range" % (key,))
            for s in next(o for o in system.root_orbits() if r in o):
                values[s] = int(v)
        return cls(system, values)

    @property
    def is_unit(self):
        return all(v == 1 for v in self.values)

    def __repr__(self):
        return "WeightFunction(%r)" % (self.values,)


def build_root_system(cartan, nonreduced=()):
    """Construct a RootSystem from a Cartan matrix (finite type enforced).

    >>> rs = build_root_system([[2, -1], [-1, 2]])
    >>> len(rs.positive_roots), len(enumerate_group(rs))
    (3, 6)
    >>> rs = build_root_system([[2, -2], [-1, 2]])
    >>> len(rs.positive_roots), len(enumerate_group(rs))
    (4, 8)
    """
    return RootSystem(cartan, nonreduced)


_NAME_RE = re.compile(r"^([A-G])(\d+)$")


def _cartan_by_edges(n, edges):
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = -1
        c[j][i] = -1
    return c


def cartan_matrix(name):
    """Cartan matrix for a type name like "A3", "B2", "G2", or a product "A1xA1".

    Bn is normalized so that the FIRST simple root is short (B2 = [[2,-2],[-1,2]]);
    Cn is its transpose.
    """
    parts = str(name).replace(" ", "").split("x")
    blocks = []
    for part in parts:
        m = _NAME_RE.match(part.upper())
        if not m:
            raise ValueError("unrecognized type name %r" % (part,))
        fam, n = m.group(1), int(m.group(2))
        if n < 1:
            raise ValueError("rank must be >= 1 in %r" % (part,))
        chain = _cartan_by_edges(n, [(i, i + 1) for i in range(n - 1)])
        if fam == "A":
            c = chain
        elif fam == "B":
            c = chain
            if n >= 2:
                c[0][1] = -2
        elif fam == "C":
            c = chain
            if n >= 2:
                c[1][0] = -2
        elif fam == "D":
            if n < 3:
                raise ValueError("D requires rank >= 3")
            c = _cartan_by_edges(
                n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
            )
        elif fam == "E":
            if n not in (6, 7, 8):
                raise ValueError("E requires rank 6, 7, or 8")
            chain_nodes = [0] + list(range(2, n))
            edges = list(zip(chain_nodes, chain_nodes[1:])) + [(1, 3)]
            c = _cartan_by_edges(n, edges)
        elif fam == "F":
            if n != 4:
                raise ValueError("F requires rank 4")
            c = _cartan_by_edges(4, [(0, 1), (1, 2), (2, 3)])
            c[1][2] = -2
        elif fam == "G":
            if n != 2:
                raise ValueError("G requires rank 2")
            c = [[2, -1], [-3, 2]]
        else:  # pragma: no cover
            raise ValueError("unrecognized family %r" % (fam,))
        blocks.append(c)
    total = sum(len(b) for b in blocks)
    out = [[0] * total for _ in range(total)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return tuple(tuple(row) for row in out)


def _ints(value):
    """True iff value is a list (or tuple) of integers, bools excluded."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(a, int) and not isinstance(a, bool) for a in value
    )


def system_from_spec(spec):
    """Build (RootSystem, WeightFunction) from a group-spec mapping.

    Either {"type": "A2"} (products via "A1xA1") or
    {"cartan": [[...]], "nonreduced": [simple indices], "weights": {root index: w}}.
    Indices in the mapping are 1-based, matching the serialized word format.
    A spec of any other shape raises ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError("group spec must be a JSON object")
    if ("type" in spec) == ("cartan" in spec):
        raise ValueError('group spec needs exactly one of "type" or "cartan"')
    if "type" in spec:
        rs = build_root_system(cartan_matrix(spec["type"]))
    else:
        cartan = spec["cartan"]
        if not isinstance(cartan, (list, tuple)) or not all(map(_ints, cartan)):
            raise ValueError('"cartan" must be a list of integer rows')
        marks = spec.get("nonreduced", [])
        if not _ints(marks):
            raise ValueError('"nonreduced" must be a list of integers')
        for i in marks:
            if not 1 <= i <= len(cartan):
                raise ValueError(
                    "nonreduced mark %d is not a simple index in 1..%d" % (i, len(cartan))
                )
        rs = build_root_system(cartan, [i - 1 for i in marks])
    weights = spec.get("weights", {})
    if not isinstance(weights, dict) or not _ints(list(weights.values())):
        raise ValueError('"weights" must map root indices to integers')
    if weights:
        roots = len(rs.nondivisible_positive)
        for k in weights:
            if not str(k).isdecimal():
                raise ValueError("weights key %r is not a root index" % (k,))
            if not 1 <= int(k) <= roots:
                raise ValueError("root index %d is not in 1..%d" % (int(k), roots))
        wf = WeightFunction.from_orbit_weights(
            rs, {int(k) - 1: v for k, v in weights.items()}
        )
    else:
        wf = WeightFunction.unit(rs)
    return rs, wf


def _check_same(u, w):
    if u.system is not w.system:
        raise ValueError("elements belong to different root systems")


def bruhat_leq(u, w):
    """Bruhat order: u <= w.

    Lifting property on a right descent s of w (ws < w): u <= w iff us <= ws
    when us < u, and iff u <= ws otherwise.  The recursion never branches, so
    it is a loop; once l(u) >= l(w), u <= w iff u = w.  Agrees with the subword
    definition (tested against bruhat_leq_subword).

    >>> rs = build_root_system(cartan_matrix("A2"))
    >>> a, b = rs.simple_reflection(0), rs.simple_reflection(1)
    >>> bruhat_leq(a, a * b), bruhat_leq(a, b)
    (True, False)
    >>> bruhat_leq(rs.identity, a * b * a), bruhat_leq(a * b, b * a)
    (True, False)
    """
    _check_same(u, w)
    while u.length < w.length:
        i = next(i for i in range(w.system.rank) if not w.sends_positive(i))
        s = w.system.simple_reflection(i)
        if not u.sends_positive(i):
            u = u * s
        w = w * s
    return u == w


def bruhat_leq_subword(u, w):
    """Subword definition of Bruhat order, by brute force over one reduced word.

    u <= w iff u is a product of some subsequence of a reduced word of w.
    Exponential in principle; used as the independent oracle in tests.
    """
    _check_same(u, w)
    rs = u.system
    reachable = {rs.identity}
    for i in w.word:
        s = rs.simple_reflection(i)
        reachable |= {x * s for x in reachable}
    return u in reachable


def longest_element(rs, J=None):
    """Longest element of the standard parabolic W_J (J = None means all of W)."""
    J = range(rs.rank) if J is None else sorted(set(J))
    w = rs.identity
    while True:
        for j in J:
            if w.sends_positive(j):
                w = w * rs.simple_reflection(j)
                break
        else:
            return w


def coset_decompose(w, J):
    """Split w = wmin * wpar with wmin in W^J, wpar in W_J, lengths adding."""
    J = sorted(set(J))
    u = w
    par = w.system.identity
    while True:
        for j in J:
            if not u.sends_positive(j):
                s = w.system.simple_reflection(j)
                u = u * s
                par = s * par
                break
        else:
            return u, par


def min_coset_reps(rs, J, cap=DEFAULT_CAP):
    """All of W^J = {w : w(alpha_j) > 0 for all j in J}, in ShortLex order."""
    J = sorted(set(J))
    return [w for w in enumerate_group(rs, cap) if all(w.sends_positive(j) for j in J)]


def in_parabolic(w, J):
    """True iff w lies in W_J, i.e. every inversion of w is supported on J."""
    mask = 0
    for j in set(J):
        mask |= 1 << j
    sup = w.system._support_mask
    return all(sup[r] & ~mask == 0 for r, p in enumerate(w.perm) if p < 0)


def parabolic_trichotomy(sigma, J, alpha):
    """Position of s_alpha * sigma relative to W^J, for sigma in W^J.

    Returns (DESCENT_IN_WJ, None), (ASCENT_IN_WJ, None), or (EXCHANGE, beta)
    where beta in J satisfies s_alpha * sigma = sigma * s_beta (then the length
    goes up and the product leaves the coset ladder instead of W^J).
    """
    J = sorted(set(J))
    if not all(sigma.sends_positive(j) for j in J):
        raise ValueError("sigma is not a minimal coset representative for J")
    rs = sigma.system
    t = rs.simple_reflection(alpha) * sigma
    if t.length < sigma.length:
        return DESCENT_IN_WJ, None
    target = rs._simple_index[alpha] + 1
    for j in J:
        if sigma.image_of_simple(j) == target:
            return EXCHANGE, j
    return ASCENT_IN_WJ, None


def weighted_length(w, c):
    """d(w) = sum of c over non-divisible positive roots inverted by w."""
    if c.system is not w.system:
        raise ValueError("weight function belongs to a different root system")
    return sum(c.values[r] for r, p in enumerate(w.perm) if p < 0)


def enumerate_group(rs, cap=DEFAULT_CAP):
    """All of W in ShortLex order, words and lengths set; CapExceeded past the cap."""
    if rs._elements is not None and len(rs._elements) <= cap:
        return rs._elements
    # -(a+1) in w.perm iff w^{-1}(alpha_a) < 0, so stop[i] holds the entries that
    # rule s_i * w out (shorter than w, or a left descent j < i).  act[i][q] is
    # s_i on signed root index q (q < 0 from the end); products share its ints.
    stop = [{-abs(t[r]) for r in rs._simple_index[: i + 1]}
            for i, t in enumerate(rs._simple_perm)]
    act = [(0, *t, *(-v for v in reversed(t))) for t in rs._simple_perm]
    out, start = [rs.identity], 0
    while start < len(out):
        layer, start = out[start:], len(out)
        negs = [{q for q in w.perm if q < 0} for w in layer]
        for i, a in enumerate(act):
            for w, p in zip(layer, negs):
                if p.isdisjoint(stop[i]):
                    x = WeylElement(rs, tuple([a[q] for q in w.perm]))
                    x._word, x._len = (i,) + w.word, w.length + 1
                    out.append(x)
                    if len(out) > cap:
                        raise CapExceeded("group has more than %d elements" % cap)
    rs._elements = tuple(out)
    return rs._elements


def greedy_word(w, letters):
    """The reduced word of w that starts with the first of `letters` (an
    ordered, re-iterable collection of simple indices) that is a left descent,
    and so on for the rest.  Increasing letters give the lexicographically
    least reduced word (`WeylElement.word`), decreasing ones the largest.

    >>> rs = build_root_system(cartan_matrix("A2"))
    >>> w0 = longest_element(rs)
    >>> greedy_word(w0, range(2)), greedy_word(w0, range(1, -1, -1))
    ((0, 1, 0), (1, 0, 1))
    """
    rs = w.system
    word = []
    while w.length:
        inv = w.inverse()
        for i in letters:
            if inv.perm[rs._simple_index[i]] < 0:
                word.append(i)
                w = rs.simple_reflection(i) * w
                break
    return tuple(word)


def word_str(w):
    """Serialize: dot-separated 1-based generator indices, identity as "e"."""
    if not w.word:
        return "e"
    return ".".join(str(i + 1) for i in w.word)


def parse_word(rs, s):
    """Parse the word_str format back into an element (any word, not only
    canonical ones: the product is taken)."""
    s = s.strip()
    if s == "e":
        return rs.identity
    w = rs.identity
    for part in s.split("."):
        if not part.isdigit():
            raise ValueError("bad word %r" % (s,))
        i = int(part) - 1
        if not 0 <= i < rs.rank:
            raise ValueError("generator index %s out of range in %r" % (part, s))
        w = w * rs.simple_reflection(i)
    return w


class WeylTables:
    """Integer-indexed tables over the whole group, for vectorized poset work.

    elements are in ShortLex order; index maps perm -> position.  mult[i, j] is
    the index of elements[i] * elements[j], inverse[i] of elements[i]^{-1}, and
    le[i, j] says elements[i] <= elements[j] in Bruhat order.  le is built one
    w at a time by `bruhat_leq`'s lifting rule on the right descent s ending
    w's word: u <= w iff us <= ws when us < u, and iff u <= ws otherwise.
    """

    def __init__(self, system, cap=DEFAULT_CAP):
        self.system = system
        self.elements = enumerate_group(system, cap)
        n = len(self.elements)
        self.index = {w.perm: i for i, w in enumerate(self.elements)}
        self.length = np.array([w.length for w in self.elements], dtype=np.int32)

        rmul = np.empty((system.rank, n), dtype=np.int32)  # rmul[g, i]: w_i * s_g
        for g in range(system.rank):
            s = system.simple_reflection(g)
            for i, w in enumerate(self.elements):
                rmul[g, i] = self.index[(w * s).perm]

        mult = np.empty((n, n), dtype=np.int32)
        col = np.arange(n, dtype=np.int32)
        for j, w in enumerate(self.elements):
            acc = col
            for g in w.word:
                acc = rmul[g][acc]
            mult[:, j] = acc
        self.mult = mult
        self.inverse = mult.argmin(axis=1).astype(np.int32)  # e is 0, once per row

        descent = self.length[rmul] < self.length  # descent[g, u]: u s_g < u
        rows = np.zeros((n, n), dtype=bool)  # rows[w], the lower set of w
        rows[0, 0] = True
        for j in range(1, n):
            g = self.elements[j].word[-1]
            below = rows[rmul[g, j]]
            rows[j] = np.where(descent[g], below[rmul[g]], below)
        self.le = rows.T.copy()  # le[u, w] = u <= w

    def idx(self, w):
        return self.index[w.perm]

"""Orbit calculus of the compactified group: labels, dimensions, moves, closure order.

Every P x P^- orbit in the compactification of the adjoint group is named by a
quadruple (I, sigma, tau, rho): I a subset of the simple roots picking the
G x G stratum (I = Delta is the dense stratum, i.e. the group; I = empty the
closed one), sigma and tau minimal coset representatives in W^I, and rho in
W_I.  The orbit is (sigma*rho, tau) . b_I, and the diagonal W_I-action on the
pair is what `canonicalize` quotients away: (x, y) ~ (x*v, y*v) for v in W_I.

Unit-weight dimension bookkeeping (the split model):

    codim inside the stratum closure  = d(sigma) + d(tau) + d(rho),
    dimension                        = 2N - l(sigma*rho) - l(tau) + |I|,
    #points over F_q                 = q^(2N - l(sigma*rho) - l(tau)) (q-1)^|I|,

with N the number of positive roots.  The rank-1 parabolic P_alpha acts on an
orbit closure from the left by either shortening sigma (if l(s_a sigma) goes
down) or, in the exchange case s_a sigma = sigma s_b with b in I, shortening
rho; otherwise the closure is stable.  The action on the right is the left
action on the swapped label (I, tau, sigma, rho^{-1}): it works on tau and
rho s_b.  Orbit closures are ordered by

    O1 <= O2  iff  I1 c I2 and there are v in W_{I2} n W^{I1}, u in W_{I1}
              with  sigma1 rho1 u >= sigma2 rho2 v,   tau1 >= tau2 v u^{-1},
              and   l(rho2) = l(rho2 v) + l(v),

which for I1 = I2 forces v = e.  The order does not need the length condition
(closure_poset), but it fixes the witness and picks the components: closure(O)
meets a smaller stratum I in one component for each v in W_J n W^I with
l(sigma rho) = l(sigma rho v) + l(v), canonicalizing (sigma rho v, tau v) in I.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import re
from typing import NamedTuple

import numpy as np

from .coxeter import (
    ASCENT_IN_WJ,
    DEFAULT_CAP,
    DESCENT_IN_WJ,
    EXCHANGE,
    WeightFunction,
    bruhat_leq,
    coset_decompose,
    enumerate_group,
    in_parabolic,
    longest_element,
    min_coset_reps,
    parabolic_trichotomy,
    parse_word,
    weighted_length,
    word_str,
)

__all__ = [
    "LEFT",
    "RIGHT",
    "OrbitLabel",
    "ClosurePoset",
    "NotGradedError",
    "LabelParseError",
    "strata",
    "enumerate_orbits",
    "canonicalize",
    "stratum_leq",
    "codim",
    "split_dimension",
    "point_count_poly",
    "poly_str",
    "poly_eval",
    "rank1_act",
    "is_stable",
    "unique_predecessor",
    "closure_leq",
    "closure_leq_witness",
    "intersection_components",
    "or_rows",
    "Stratum",
    "label_layout",
    "closure_poset",
    "strata_csv",
    "label_str",
    "parse_label",
]

LEFT = "left"
RIGHT = "right"


class OrbitLabel:
    """The canonical name (I, sigma, tau, rho) of one P x P^- orbit."""

    __slots__ = ("system", "I", "sigma", "tau", "rho", "_hash")

    def __init__(self, I, sigma, tau, rho):
        system = sigma.system
        if tau.system is not system or rho.system is not system:
            raise ValueError("label components belong to different root systems")
        I = tuple(sorted(set(int(i) for i in I)))
        for i in I:
            if not 0 <= i < system.rank:
                raise ValueError("stratum index %r out of range" % (i,))
        if not all(sigma.sends_positive(i) for i in I):
            raise ValueError("sigma is not a minimal coset representative mod W_I")
        if not all(tau.sends_positive(i) for i in I):
            raise ValueError("tau is not a minimal coset representative mod W_I")
        if not in_parabolic(rho, I):
            raise ValueError("rho is not in the parabolic subgroup W_I")
        self.system = system
        self.I = I
        self.sigma = sigma
        self.tau = tau
        self.rho = rho
        self._hash = None

    def key(self):
        """Deterministic sort key: stratum by (size, indices), then ShortLex."""
        return (
            (len(self.I), self.I),
            self.sigma.shortlex_key(),
            self.tau.shortlex_key(),
            self.rho.shortlex_key(),
        )

    def __eq__(self, other):
        return (
            isinstance(other, OrbitLabel)
            and other.system is self.system
            and other.I == self.I
            and other.sigma.perm == self.sigma.perm
            and other.tau.perm == self.tau.perm
            and other.rho.perm == self.rho.perm
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.I, self.sigma.perm, self.tau.perm, self.rho.perm)
            )
        return self._hash

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "<orbit %s>" % label_str(self)


def label_str(O):
    """Serialize a label: I=[2];sigma=1.2;tau=e;rho=2 (1-based indices)."""
    return "I=[%s];sigma=%s;tau=%s;rho=%s" % (
        ",".join(str(i + 1) for i in O.I),
        word_str(O.sigma),
        word_str(O.tau),
        word_str(O.rho),
    )


class LabelParseError(ValueError):
    """Bad or non-canonical label string; .suggestion holds the canonical form
    when one can be inferred."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


_LABEL_RE = re.compile(r"^I=\[([0-9,]*)\];sigma=([^;]+);tau=([^;]+);rho=([^;]+)$")


def parse_label(rs, s):
    """Parse label_str output; reject non-canonical input with a suggestion."""
    m = _LABEL_RE.match(s.strip())
    if not m:
        raise LabelParseError("cannot parse label %r" % (s,))
    istr, sstr, tstr, rstr = m.groups()
    try:
        I = tuple(int(p) - 1 for p in istr.split(",")) if istr else ()
        sigma = parse_word(rs, sstr)
        tau = parse_word(rs, tstr)
        rho = parse_word(rs, rstr)
    except ValueError as e:
        raise LabelParseError("cannot parse label %r: %s" % (s, e)) from None
    for i in I:
        if not 0 <= i < rs.rank:
            raise LabelParseError(
                "cannot parse label %r: stratum index %d out of range 1..%d"
                % (s, i + 1, rs.rank)
            )
    suggestion = label_str(canonicalize(rs, I, sigma * rho, tau))
    if istr != ",".join(str(i + 1) for i in sorted(set(I))):
        raise LabelParseError(
            "I=[%s] is not a canonical stratum: indices increase, without repeats "
            "or leading zeros (canonical label: %s)" % (istr, suggestion),
            suggestion,
        )
    for given, w, name in ((sstr, sigma, "sigma"), (tstr, tau, "tau"), (rstr, rho, "rho")):
        if given != word_str(w):
            raise LabelParseError(
                "%s=%r is not a canonical reduced word (canonical label: %s)"
                % (name, given, suggestion),
                suggestion,
            )
    try:
        return OrbitLabel(I, sigma, tau, rho)
    except ValueError as e:
        raise LabelParseError(
            "%s (canonical label: %s)" % (e, suggestion), suggestion
        ) from None


def strata(rs):
    """All subsets of the simple roots, ordered by (size, indices)."""
    out = []
    for k in range(rs.rank + 1):
        out.extend(itertools.combinations(range(rs.rank), k))
    return out


def enumerate_orbits(rs, J=None, cap=DEFAULT_CAP):
    """All orbit labels (restricted to stratum J when given), in canonical order.

    Canonical order: stratum by (size, indices), then ShortLex on sigma, tau,
    rho.  The count in stratum J is |W^J|^2 * |W_J| = |W|^2 / |W_J|.
    """
    W = enumerate_group(rs, cap)  # checks the cap before listing the 2^rank strata
    if J is None:
        return [O for J2 in strata(rs) for O in enumerate_orbits(rs, J2, cap)]
    J = tuple(sorted(set(J)))
    reps = min_coset_reps(rs, J, cap)
    par = [w for w in W if in_parabolic(w, J)]
    return [OrbitLabel(J, s, t, r) for s in reps for t in reps for r in par]


def canonicalize(rs, I, x, y):
    """The unique label with (sigma*rho, tau) in the diagonal W_I-class of (x, y).

    Decompose y = y_min * y_par; the stabilizer lets us slide v = y_par^{-1}
    onto both coordinates, leaving tau = y_min in W^I; then split x*v into
    sigma * rho.
    """
    I = tuple(sorted(set(I)))
    y_min, y_par = coset_decompose(y, I)
    sigma, rho = coset_decompose(x * y_par.inverse(), I)
    return OrbitLabel(I, sigma, y_min, rho)


def stratum_leq(I, J):
    """Stratum closure order: X_I lies in the closure of X_J iff I is a subset."""
    return set(I) <= set(J)


def _weights(O, c):
    if c is None:
        return WeightFunction.unit(O.system)
    if c.system is not O.system:
        raise ValueError("weight function belongs to a different root system")
    return c


def codim(O, c=None):
    """Codimension of the orbit inside its stratum closure: d(sigma)+d(tau)+d(rho)."""
    c = _weights(O, c)
    return (
        weighted_length(O.sigma, c)
        + weighted_length(O.tau, c)
        + weighted_length(O.rho, c)
    )


def _require_unit(c, O, what):
    if c is not None and not c.is_unit:
        raise ValueError("%s is defined for the split (unit-weight) model only" % what)


def split_dimension(O, c=None):
    """Orbit dimension in the split model: 2N - l(sigma*rho) - l(tau) + |I|."""
    _require_unit(c, O, "split_dimension")
    n = O.system.num_positive()
    return 2 * n - (O.sigma.length + O.rho.length) - O.tau.length + len(O.I)


def point_count_poly(O, c=None):
    """#O(F_q) in the split adjoint model, as q^(2N-l(sigma rho)-l(tau)) (q-1)^|I|.

    Returned as a tuple of integer coefficients, ascending powers of q.
    """
    _require_unit(c, O, "point_count_poly")
    n = O.system.num_positive()
    power = 2 * n - (O.sigma.length + O.rho.length) - O.tau.length
    coeffs = [0] * power + [1]
    for _ in O.I:
        # times (q - 1):  q*p  minus  p
        coeffs = [a - b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


def poly_eval(coeffs, q):
    return sum(c * q ** k for k, c in enumerate(coeffs))


def poly_str(coeffs):
    """Human form, highest power first: e.g. q^3+q^2+q+1 or q^2-q."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c)) + "*"
            body = head + ("q" if k == 1 else "q^%d" % k)
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in terms[1:]:
        out += sign + body
    return out


def _as_left(O, side):
    """The label on which `side`'s moves are LEFT moves: O for LEFT, and for
    RIGHT the swapped label (I, tau, sigma, rho^{-1}).  The swap is an
    involution of each stratum's labels, so it also maps the result back."""
    if side == LEFT:
        return O
    if side == RIGHT:
        return OrbitLabel(O.I, O.tau, O.sigma, O.rho.inverse())
    raise ValueError("side must be LEFT or RIGHT")


def rank1_act(O, side, alpha):
    """Label of the dense orbit of P_alpha . closure(O) (LEFT) or closure(O) . P_alpha (RIGHT).

    LEFT: if l(s_a sigma) < l(sigma), sigma shortens; in the exchange case
    s_a sigma = sigma s_b with b in I and l(s_b rho) < l(rho), rho shortens;
    otherwise O is returned unchanged.  RIGHT is LEFT on the swapped label
    (_as_left): it shortens tau, or rho s_b = (s_b rho^{-1})^{-1}.
    """
    L = _as_left(O, side)
    case, beta = parabolic_trichotomy(L.sigma, L.I, alpha)
    if case == DESCENT_IN_WJ:
        s = O.system.simple_reflection(alpha)
        return _as_left(OrbitLabel(L.I, s * L.sigma, L.tau, L.rho), side)
    if case == EXCHANGE:
        rho2 = O.system.simple_reflection(beta) * L.rho
        if rho2.length < L.rho.length:
            return _as_left(OrbitLabel(L.I, L.sigma, L.tau, rho2), side)
    return O


def is_stable(O, side, alpha):
    """True iff the rank-1 parabolic does not enlarge the orbit closure.

    Characterized by a single length test: l(s_a sigma rho) > l(sigma rho) on
    the LEFT, l(s_a tau rho^{-1}) > l(tau rho^{-1}) on the RIGHT (the LEFT
    test on the swapped label).
    """
    L = _as_left(O, side)
    x = L.sigma * L.rho
    return (O.system.simple_reflection(alpha) * x).length > x.length


def unique_predecessor(O, side, alpha):
    """The unique label O0 != O with rank1_act(O0, side, alpha) = O.

    Defined exactly on stable labels: on the LEFT the ascent case lifts sigma
    to s_a sigma and the exchange case lifts rho to s_b rho; RIGHT is LEFT on
    the swapped label.  Raises on unstable labels, naming the trichotomy case
    that rules it out.
    """
    L = _as_left(O, side)
    case, beta = parabolic_trichotomy(L.sigma, L.I, alpha)
    if case == ASCENT_IN_WJ:
        s = O.system.simple_reflection(alpha)
        return _as_left(OrbitLabel(L.I, s * L.sigma, L.tau, L.rho), side)
    if case == EXCHANGE:
        rho2 = O.system.simple_reflection(beta) * L.rho
        if rho2.length > L.rho.length:
            return _as_left(OrbitLabel(L.I, L.sigma, L.tau, rho2), side)
        raise ValueError("unstable label: exchange case where the move shortens rho")
    raise ValueError(
        "unstable label: descent case where the move shortens the coset representative"
    )


def _shortening(O, I, cap):
    """The v in W_{O.I} n W^I with l(rho v) = l(rho) - l(v), in ShortLex order.

    As sigma is in W^{O.I}, the length test is l(sigma rho v) = l(sigma rho) - l(v).
    """
    return [
        v
        for v in enumerate_group(O.system, cap)
        if in_parabolic(v, O.I)
        and all(v.sends_positive(i) for i in I)
        and (O.rho * v).length == O.rho.length - v.length
    ]


def closure_leq_witness(O1, O2, cap=DEFAULT_CAP):
    """(u, v) witnessing closure containment O1 <= O2, or None.

    Searches v in W_{I2} n W^{I1} subject to l(rho2) = l(rho2 v) + l(v)
    (_shortening), then u in W_{I1}, for sigma1 rho1 u >= sigma2 rho2 v and
    tau1 >= tau2 v u^{-1}; both loops in ShortLex order, first hit returned.
    """
    if O1.system is not O2.system:
        raise ValueError("labels belong to different root systems")
    if not stratum_leq(O1.I, O2.I):
        return None
    us = [u for u in enumerate_group(O1.system, cap) if in_parabolic(u, O1.I)]
    a1, t1 = O1.sigma * O1.rho, O1.tau
    a2, t2 = O2.sigma * O2.rho, O2.tau
    for v in _shortening(O2, O1.I, cap):
        a2v = a2 * v
        t2v = t2 * v
        for u in us:
            if bruhat_leq(a2v, a1 * u) and bruhat_leq(t2v * u.inverse(), t1):
                return u, v
    return None


def closure_leq(O1, O2, cap=DEFAULT_CAP):
    """Closure order on orbit labels: O1 lies in the closure of O2."""
    return closure_leq_witness(O1, O2, cap) is not None


def intersection_components(O, I, cap=DEFAULT_CAP):
    """Labels of the irreducible components of closure(O) n closure(stratum I).

    One component for each v in W_J n W^I with l(sigma rho) = l(sigma rho v)
    + l(v) (J = O.I; the same set as in closure_leq_witness, _shortening): the
    canonicalization of (sigma rho v, tau v) in stratum I.  Empty when I is
    not contained in O.I.
    """
    I = tuple(sorted(set(I)))
    if not stratum_leq(I, O.I):
        return []
    a = O.sigma * O.rho
    return [canonicalize(O.system, I, a * v, O.tau * v) for v in _shortening(O, I, cap)]


class NotGradedError(ValueError):
    """The closure order is not graded by split_dimension; .pair holds the two
    labels the message is about."""

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair


def or_rows(out, owner, rows, source):
    """out[owner[e]] |= rows[source[e]] for every edge e, with owner sorted.

    One vectorized OR per slot, the k-th edge of every owner, so that no row
    of out repeats within a slot (a repeated fancy index would keep only one
    of its ORs).  Both .hasse and the move oracle build packed rows with it.
    """
    counts = np.bincount(owner, minlength=len(out))
    starts = np.cumsum(counts) - counts
    for k in range(counts.max(initial=0)):
        slot = np.flatnonzero(counts > k)
        out[slot] |= rows[source[starts[slot] + k]]


class ClosurePoset:
    """All labels of one group plus the closure partial order.

    labels are in canonical order; rows is the order packed by np.packbits,
    n x ceil(n/8) uint8 (bit j of rows[i]: labels[i] <= labels[j]), which leq
    unpacks on each read; hasse holds the covering pairs (i, j), i covered by
    j, i.e. the transitive reduction, computed on first use.
    """

    def __init__(self, labels, rows):
        self.labels = tuple(labels)
        self.rows = rows

    @property
    def leq(self):
        """The order as a new boolean n x n matrix: leq[i, j] iff labels[i] <= labels[j]."""
        return np.unpackbits(self.rows, axis=1, count=len(self.labels)).view(bool)

    @functools.cached_property
    def hasse(self):
        """Covering pairs (i, j) in row-major order, read off the grading.

        split_dimension grades the order: every strict relation raises it,
        every cover raises it by exactly 1, and all minimal (all maximal)
        labels share one dimension.  So the covers are the relations between
        consecutive dimension levels.  The grading is checked, not assumed,
        one level at a time in decreasing dimension: a level's covers are
        the bits of its rows at the level above, and its up-sets are rebuilt
        as packed rows, each label's own bit OR the rebuilt rows of its
        covers (or_rows).  They must equal the level's rows.  Only the
        rebuilt rows of two adjacent levels are alive at a time.  When some
        row differs, NotGradedError names the first differing pair (i, j) in
        row-major order; when two minimal or two maximal labels differ in
        dimension, it names those two.
        """
        n = len(self.labels)
        dims = np.array([split_dimension(L) for L in self.labels], dtype=np.int64)
        upper, got_up = np.empty(0, dtype=np.intp), self.rows[:0]  # level above, rebuilt rows
        covers, first = [], None  # first: the smallest (i, j) where got and rows differ
        for d in range(int(dims.max()), int(dims.min()) - 1, -1):
            lower = np.flatnonzero(dims == d)
            want = self.rows[lower]
            byte, bit = upper >> 3, (0x80 >> (upper & 7)).astype(np.uint8)
            below, above = np.divmod(np.flatnonzero(np.take(want, byte, 1) & bit), len(upper))
            covers.append((lower[below], upper[above]))

            got = np.zeros_like(want)
            got[np.arange(len(lower)), lower >> 3] = 0x80 >> (lower & 7)
            or_rows(got, below, got_up, above)
            want ^= got  # now the bits where got and rows differ
            bad = np.flatnonzero(want.any(axis=1))
            if len(bad) and (first is None or lower[bad[0]] < first[0]):
                j = np.flatnonzero(np.unpackbits(want[bad[0]], count=n))[0]
                first = (lower[bad[0]], j)
            upper, got_up = lower, got

        if first is not None:
            if np.unpackbits(self.rows[first[0]], count=n)[first[1]]:
                what = "%s <= %s holds but the dimension-one covers do not generate it"
            else:
                what = "the dimension-one covers generate %s <= %s but it does not hold"
            raise self._not_graded(*first, what)

        a, b = (np.concatenate(e) for e in zip(*covers))
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        for ends, kind in ((b, "minimal"), (a, "maximal")):
            extreme = np.ones(n, dtype=bool)
            extreme[ends] = False
            extreme = np.flatnonzero(extreme)
            odd = extreme[dims[extreme] != dims[extreme[0]]]
            if len(odd):
                what = "%s and %s are both " + kind + " but differ in dimension"
                raise self._not_graded(extreme[0], odd[0], what)
        return tuple(zip(a.tolist(), b.tolist()))

    def _not_graded(self, i, j, what):
        pair = (self.labels[i], self.labels[j])
        return NotGradedError(
            "closure order is not graded by split_dimension: "
            + what % (label_str(pair[0]), label_str(pair[1])),
            pair,
        )

    def to_json(self):
        """{"labels": [...], "hasse": [[i, j], ...]} as JSON, byte for byte
        json.dumps(..., indent=2, sort_keys=True), but filled into one
        template: Python's indenting encoder is pure Python."""
        pair = "[\n      %d,\n      %d\n    ]"
        hasse = ",\n    ".join([pair] * len(self.hasse))
        hasse %= tuple(itertools.chain.from_iterable(self.hasse))
        labels = ",\n    ".join(json.dumps(label_str(L)) for L in self.labels)
        return '{\n  "hasse": %s,\n  "labels": %s\n}' % tuple(
            "[\n    %s\n  ]" % body if body else "[]" for body in (hasse, labels)
        )

    def to_dot(self):
        lines = ["digraph closure {", "  rankdir=BT;", '  node [shape=box];']
        for i, L in enumerate(self.labels):
            lines.append('  n%d [label="%s"];' % (i, label_str(L)))
        dims = {}
        for i, L in enumerate(self.labels):
            dims.setdefault(split_dimension(L), []).append(i)
        for d in sorted(dims):
            lines.append(
                "  { rank=same; %s }" % " ".join("n%d;" % i for i in dims[d])
            )
        for i, j in self.hasse:
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


def strata_csv(labels):
    """Per-stratum summary of labels: stratum, count, min_dim, max_dim.

    A function of the labels and their dimensions alone, so no relation is
    built for it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["stratum", "count", "min_dim", "max_dim"])
    groups = {}
    for L in labels:
        groups.setdefault(L.I, []).append(split_dimension(L))
    for I in sorted(groups, key=lambda I: (len(I), I)):
        dims = groups[I]
        writer.writerow(
            ["[%s]" % ",".join(str(i + 1) for i in I), len(dims), min(dims), max(dims)]
        )
    return buf.getvalue()


class Stratum(NamedTuple):
    """The labels of one stratum I as a block of the canonical label order.

    reps is W^I and par is W_I, as element indices in ShortLex order; label
    (sigma, tau, rho) = (reps[i], reps[j], par[k]) is number
    offset + (i |W^I| + j) |W_I| + k.  coset[w] = i |W_I| + k for the coset
    decomposition w = reps[i] * par[k]; on W^I it is |W_I| times the position,
    and on W_I the position.
    """

    offset: int
    reps: np.ndarray
    par: np.ndarray
    coset: np.ndarray

    @property
    def size(self):
        """The number of labels, |W^I|^2 |W_I|."""
        return len(self.reps) ** 2 * len(self.par)


def label_layout(tab):
    """{I: Stratum} for every stratum, in the order of enumerate_orbits.

    Read off mult, inverse and length alone: with w0 the longest element of
    W_I, W_I is {w : l(w^-1 w0) = l(w0) - l(w)} (the elements below w0 in the
    weak order) and W^I is {w : l(w w0) = l(w) + l(w0)}.
    """
    mult, length = tab.mult, tab.length
    layout = {}
    offset = 0
    for I in strata(tab.system):
        w0 = tab.idx(longest_element(tab.system, I))
        par = np.flatnonzero(length[mult[tab.inverse, w0]] == length[w0] - length)
        reps = np.flatnonzero(length[mult[:, w0]] == length + length[w0])
        coset = np.empty(len(length), dtype=np.intp)
        coset[mult[np.ix_(reps, par)].ravel()] = np.arange(len(reps) * len(par))
        layout[I] = Stratum(offset, reps, par, coset)
        offset += layout[I].size
    return layout


def closure_poset(rs, cap=DEFAULT_CAP):
    """The full closure poset: the pairwise criterion, one stratum block at a time.

    Write a label of stratum I as (a, t), a = sigma*rho in W and t = tau in W^I.
    For strata I1 c I2 and each of the K pairs (v in W_I2 n W^I1, u in W_I1)
    the criterion is le[a2 v, a1 u] and le[t2 v u^-1, t1], so the block is the
    boolean product A @ T, an OR of ANDs over the K pairs, with A of shape
    (|W|^2, K) and T of shape (K, |W^I1| |W^I2|).  A's rows are taken one
    sigma1 at a time: the |W| rows of sigma1 are written in label order into
    one boolean scratch for all I2 and then packed into ClosurePoset.rows.
    The condition l(rho2 v) = l(rho2) - l(v) is left out by a lemma (tools from
    Bjorner-Brenti, GTM 231): if (v, u) meets both inequalities, an admissible
    (v', u u3) does.  (1) The letters of a reduced word of v that shorten rho2
    spell y0 <= v: l(rho2 y0) = l(rho2) - l(y0), rho2 y0 <= rho2 v (lifting).
    (2) Split y0 = v' u0 with v' in W^I1, u0 in W_I1; then v' is admissible.
    (3) As sigma2 is in W^I2, a2 y0 <= a2 v <= a1 u.  The letters of u0^-1
    that lengthen a1 u spell u3, and the Demazure product is monotone, so
    a2 v' = a2 y0 u0^-1 <= a1 u u3.  (4) v' u3^-1 <= v' u0 = y0 <= v, so
    t2 v' (u u3)^-1 <= t2 v u^-1 <= t1 by the subword property.
    """
    tab = rs.tables(cap)
    labels = enumerate_orbits(rs, cap=cap)
    n = len(labels)
    rows = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    mult, inv, le = tab.mult, tab.inverse, tab.le

    # per stratum: its first label, W^I, W_I and a[sigma, rho] = sigma*rho
    blocks = {
        I: (st.offset, st.reps, st.par, mult[np.ix_(st.reps, st.par)])
        for I, st in label_layout(tab).items()
    }

    # t1 and t2 are W^I1 and W^I2, the values of tau
    for I1, (o1, t1, par1, a1) in blocks.items():
        m1, p1 = a1.shape
        pairs = []  # per I2 with I1 c I2: its columns and their shape, u, a2v, T
        for I2, (o2, t2, par2, a2) in blocks.items():
            if not set(I1) <= set(I2):
                continue
            m2, p2 = a2.shape
            v, u = np.meshgrid(np.intersect1d(par2, t1), par1, indexing="ij")
            v, u = v.ravel(), u.ravel()
            a2v = mult[a2[:, :, None], v]  # [sigma2, rho2, k]
            T = le[mult[mult[t2[:, None], v], inv[u]].T, t1[:, None, None]]  # [t1, k, t2]
            pairs.append((slice(o2, o2 + m2 * m2 * p2), (m1, p1, m2, m2, p2), u, a2v, T))
        scratch = np.zeros((m1 * p1, n), dtype=bool)  # every sigma1 writes the same columns
        for s1 in range(m1):
            for cols, shape, u, a2v, T in pairs:
                # A[rho1, sigma2, rho2, k], and the rows of sigma1 as
                # out[rho1, sigma2, tau1, rho2, tau2]
                A = le[a2v, mult[a1[s1][:, None], u][:, None, None]]
                out = scratch[:, cols].reshape(shape).transpose(1, 2, 0, 4, 3)
                np.matmul(A[:, :, None], T, out=out)
            first = o1 + s1 * m1 * p1
            rows[first:first + m1 * p1] = np.packbits(scratch, axis=1)

    return ClosurePoset(labels, rows)

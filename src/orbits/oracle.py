"""Move-generated reconstruction of the closure poset, independent of the formula.

Within one stratum J the closed orbit is the canonicalization of
(w0, w0*w0J).b_J, i.e. the label (J, w0^J, w0^J, w0J) where w0^J = w0*w0J.
Every other orbit closure in the stratum is swept out from it by rank-1
parabolic multiplications: fix the reduced words

    left word  = word(sigma2 * rho2 * w0),
    right word = word(tau2 * w0J * w0),

and apply the corresponding LEFT/RIGHT moves last letter first.  Applying all
of them drives the minimal orbit's coordinates monotonically onto
(sigma2*rho2, tau2); applying arbitrary subsequences reaches exactly the
labels whose closures lie inside closure(O2).  That subword saturation is the
same-stratum order.  Crossing strata, the closure of an orbit meets each
codimension-one smaller stratum in its intersection components; those
degeneration edges plus the within-stratum relations generate (by
transitivity) the whole closure order.

Nothing here calls the closed-form comparison criterion; agreement of
`oracle_poset` with `closure_poset` is checked, not assumed.
"""

from __future__ import annotations

import numpy as np

from .coxeter import DEFAULT_CAP, greedy_word, longest_element
from .orbit_model import (
    LEFT,
    RIGHT,
    ClosurePoset,
    _as_left,
    canonicalize,
    enumerate_orbits,
    intersection_components,
    label_str,
    rank1_act,
)

__all__ = [
    "minimal_orbit",
    "subword_closure_same_stratum",
    "GeneratorCycleError",
    "oracle_poset",
    "compare_posets",
]


def minimal_orbit(rs, J):
    """The closed P x P^- orbit of stratum J: canonicalize(J, w0, w0*w0J)."""
    w0 = longest_element(rs)
    w0J = longest_element(rs, J)
    return canonicalize(rs, J, w0, w0 * w0J)


def _moves_for(O2, alternate=False):
    """The (side, alpha) move sequence carrying minimal_orbit(J) onto O2: the
    lex-least reduced words, or with `alternate` the lex-largest."""
    rs = O2.system
    w0 = longest_element(rs)
    w0J = longest_element(rs, O2.I)
    letters = range(rs.rank - 1, -1, -1) if alternate else range(rs.rank)
    lw = greedy_word(O2.sigma * O2.rho * w0, letters)
    rw = greedy_word(O2.tau * w0J * w0, letters)
    return tuple(
        [(LEFT, a) for a in reversed(lw)] + [(RIGHT, a) for a in reversed(rw)]
    )


def subword_closure_same_stratum(O2, alternate=False):
    """All labels reachable from minimal_orbit(O2.I) by subsequences of O2's moves.

    This is the within-stratum lower set of O2 in the closure order (checked
    against the closed-form criterion, not assumed).  `alternate` switches to
    a second pair of reduced words for the expression-independence tests.
    """
    reach = {minimal_orbit(O2.system, O2.I)}
    for side, alpha in _moves_for(O2, alternate):
        reach |= {rank1_act(O, side, alpha) for O in reach}
    return reach


class GeneratorCycleError(ValueError):
    """The oracle's generator edges contain a cycle; .cycle lists its labels,
    each below the next and the last below the first."""

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = cycle


def oracle_poset(rs, cap=DEFAULT_CAP, alternate=False):
    """Closure poset rebuilt from moves + degenerations + transitivity only.

    Generators of the relation: (a) within each stratum, O1 <= O2 whenever O1
    is in subword_closure_same_stratum(O2), run on move tables: the LEFT ones
    from rank1_act, each RIGHT one the LEFT one conjugated by the label swap
    (I, sigma, tau, rho) -> (I, tau, sigma, rho^{-1}); (b) L <= O for every
    intersection component L of O at a codimension-one smaller stratum.  The
    generators are then closed transitively in one pass (_transitive_closure).
    """
    labels = enumerate_orbits(rs, cap=cap)
    n = len(labels)
    index = {L: i for i, L in enumerate(labels)}
    gen = np.zeros((n, n), dtype=bool)

    # (a) within-stratum subword saturation, one DP per target label
    by_stratum = {}
    for L in labels:
        by_stratum.setdefault(L.I, []).append(L)
    for J, stratum_labels in by_stratum.items():
        local = {L: k for k, L in enumerate(stratum_labels)}
        m = len(stratum_labels)
        swap = np.array([local[_as_left(L, RIGHT)] for L in stratum_labels])
        trans = {}
        for alpha in range(rs.rank):
            left = np.array([local[rank1_act(L, LEFT, alpha)] for L in stratum_labels])
            trans[LEFT, alpha] = left
            trans[RIGHT, alpha] = swap[left[swap]]
        start = local[minimal_orbit(rs, J)]
        for L in stratum_labels:
            reach = np.zeros(m, dtype=bool)
            reach[start] = True
            for move in _moves_for(L, alternate):
                reach[trans[move][reach]] = True
            src = [index[stratum_labels[k]] for k in np.nonzero(reach)[0]]
            gen[src, index[L]] = True

    # (b) degeneration edges into each codimension-one smaller stratum
    for L in labels:
        for j in L.I:
            I = tuple(i for i in L.I if i != j)
            for C in intersection_components(L, I, cap):
                gen[index[C], index[L]] = True

    np.fill_diagonal(gen, False)  # (a) puts each label below itself
    return ClosurePoset(labels, _transitive_closure(gen, labels))


def _transitive_closure(gen, labels):
    """Reflexive-transitive closure of the strict generators gen[i, j] (i below j).

    One pass in reverse topological order of the generator graph (Kahn's
    algorithm): each label's up-set is its own bit OR the bit-packed up-sets
    of its generator successors, which are all final by then.  A cycle among
    the generators raises GeneratorCycleError.
    """
    n = len(labels)
    succ = [np.flatnonzero(row) for row in gen]
    indegree = np.count_nonzero(gen, axis=0)
    order = list(np.flatnonzero(indegree == 0))
    for i in order:
        js = succ[i]
        indegree[js] -= 1
        order.extend(js[indegree[js] == 0])
    if len(order) < n:
        cycle = [labels[i] for i in _find_cycle(gen, indegree > 0)]
        raise GeneratorCycleError(
            "oracle generator edges form a cycle: %s"
            % " <= ".join(label_str(L) for L in cycle + cycle[:1]),
            cycle,
        )
    up = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for i in reversed(order):
        js = succ[i]
        if len(js):
            up[i] = np.bitwise_or.reduce(up[js], axis=0)
        up[i, i >> 3] |= 0x80 >> (i & 7)
    return np.unpackbits(up, axis=1, count=n).view(bool)


def _find_cycle(gen, left):
    """A cycle inside `left`, the labels Kahn's algorithm could not order:
    each of them has a generator predecessor in `left`, so walking back from
    any of them must repeat."""
    path = [int(np.flatnonzero(left)[0])]
    seen = {path[0]: 0}
    while True:
        i = int(np.flatnonzero(gen[:, path[-1]] & left)[0])
        if i in seen:
            return path[seen[i]:][::-1]
        seen[i] = len(path)
        path.append(i)


def compare_posets(p1, p2):
    """Ordered pairs present in exactly one of the two posets (empty iff equal).

    Returns a list of {"below", "above", "only_in"} records in row-major
    order of the label indices; raises if the label universes differ.
    """
    if p1.labels != p2.labels:
        raise ValueError("posets are over different label universes")
    diff = p1.leq ^ p2.leq
    np.fill_diagonal(diff, False)
    return [
        {
            "below": label_str(p1.labels[i]),
            "above": label_str(p1.labels[j]),
            "only_in": "first" if p1.leq[i, j] else "second",
        }
        for i, j in np.argwhere(diff)
    ]

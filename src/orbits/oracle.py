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

`oracle_poset` does all of this on the group tables `mult`, `inverse` and
`length`, in the label layout of `label_layout`: one move table per simple
root and side, one pass per stratum over the trie of move sequences, and the
degenerations per pair of strata.  `rank1_act`, `subword_closure_same_stratum`
and `intersection_components` are the scalar references it is tested
against.  Nothing here reads the Bruhat table `le` or calls the closed-form
comparison criterion; agreement of `oracle_poset` with `closure_poset` is
checked, not assumed.
"""

from __future__ import annotations

import numpy as np

from .coxeter import DEFAULT_CAP, greedy_word, longest_element
from .orbit_model import (
    LEFT,
    RIGHT,
    ClosurePoset,
    canonicalize,
    enumerate_orbits,
    label_layout,
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
    is in subword_closure_same_stratum(O2), computed for all O2 at once by
    _down_sets; (b) L <= O for every intersection component L of O at a
    codimension-one smaller stratum (_degenerations).  Both read only the
    tables mult, inverse and length.  The generators are then closed
    transitively in one pass (_transitive_closure).
    """
    tab = rs.tables(cap)
    labels = enumerate_orbits(rs, cap=cap)
    n = len(labels)
    gen = np.zeros((n, n), dtype=bool)
    layout = label_layout(tab)
    simple = np.array(
        [tab.idx(rs.simple_reflection(a)) for a in range(rs.rank)], dtype=np.intp
    )
    first = _first_letters(tab, simple, alternate)
    w0 = tab.idx(longest_element(rs))
    for J, st in layout.items():
        block = slice(st.offset, st.offset + st.size)
        # gen[i, j] says labels[i] is below labels[j]: a label's down-set is
        # its column, a row of the transposed view
        _down_sets(tab, st, J, simple, first, w0, gen[block, block].T)
        for j in J:
            below, above = _degenerations(tab, st, layout[tuple(i for i in J if i != j)])
            gen[below, above] = True

    np.fill_diagonal(gen, False)  # (a) puts each label below itself
    return ClosurePoset(labels, _transitive_closure(gen, labels))


def _first_letters(tab, simple, alternate):
    """first[x]: the first letter of greedy_word(x) (-1 for e) over the
    letters in increasing order, or with `alternate` in decreasing order.
    The rest of that word is greedy_word(s_first x)."""
    first = np.full(len(tab.length), -1)
    letters = range(len(simple)) if alternate else range(len(simple) - 1, -1, -1)
    for a in letters:  # the letter that comes first in the order is set last
        first[tab.length[tab.mult[simple[a]]] < tab.length] = a
    return first


def _left_move(tab, st, J, simple, alpha):
    """The LEFT move alpha on stratum J, which keeps tau, as positions:
    sigma -> sigma_to[sigma], and (sigma, rho) -> rho_to[sigma, rho].

    Descent, l(s_a sigma) < l(sigma): sigma shortens.  Exchange,
    s_a sigma = sigma s_b with b in J: rho shortens to s_b rho if that is
    shorter.  Otherwise (ascent) the label stays.
    """
    mult, length = tab.mult, tab.length
    m, p = len(st.reps), len(st.par)
    moved = mult[simple[alpha], st.reps]
    descent = length[moved] < length[st.reps]
    sigma_to = np.where(descent, st.coset[moved] // p, np.arange(m))
    rho_to = np.tile(np.arange(p), (m, 1))
    for b in J:
        exchange = moved == mult[st.reps, simple[b]]
        rho = mult[simple[b], st.par]
        shorter = length[rho] < length[st.par]
        rho_to[np.ix_(exchange, shorter)] = st.coset[rho[shorter]]
    return sigma_to, rho_to


def _move_tables(tab, st, J, simple):
    """moves[k][i]: the label position that move k sends position i of
    stratum J to; k = alpha is LEFT alpha, k = rank + alpha is RIGHT alpha.

    RIGHT is LEFT conjugated by the label swap (sigma, tau, rho) ->
    (tau, sigma, rho^-1), an involution of the stratum's positions.
    """
    m, p = len(st.reps), len(st.par)
    sigma, tau, rho = np.indices((m, m, p))
    swap = ((tau * m + sigma) * p + st.coset[tab.inverse[st.par]][rho]).ravel()
    left = []
    for alpha in range(len(simple)):
        sigma_to, rho_to = _left_move(tab, st, J, simple, alpha)
        left.append(((sigma_to[sigma] * m + tau) * p + rho_to[sigma, rho]).ravel())
    return left + [swap[move[swap]] for move in left]


def _down_sets(tab, st, J, simple, first, w0, down):
    """Write into down[i] the labels that the subword moves of label i of
    stratum J reach from its minimal orbit (all positions in the stratum).

    Label i's moves read the greedy words of sigma*rho*w0 and tau*w0J*w0
    backwards, the right word's first letter last.  Without that letter (or,
    once the right word is empty, the left word's first one) they are the
    greedy words of a parent label.  So label i's move sequence is its
    parent's plus one last move, and its down-set is the parent's plus that
    move's image of it.  The labels are taken depth by depth (the number of
    moves), one move at a time.
    """
    mult, length = tab.mult, tab.length
    m, p, r = len(st.reps), len(st.par), len(simple)
    a = mult[np.ix_(st.reps, st.par)]  # sigma*rho
    left_word = mult[a, w0]
    right_word = mult[mult[st.reps, st.par[-1]], w0]  # st.par[-1] is w0J
    first_left, first_right = first[left_word], first[right_word]
    # parents: RIGHT while the right word is not empty, then LEFT
    tau_up = np.arange(m)
    go = first_right >= 0
    tau_up[go] = st.coset[mult[simple[first_right[go]], st.reps[go]]] // p
    sigma_rho_up = np.arange(m * p).reshape(m, p)
    go = first_left >= 0
    sigma_rho_up[go] = st.coset[mult[simple[first_left[go]], a[go]]]

    sigma, tau, rho = np.indices((m, m, p))
    right = first_right[tau] >= 0
    move = np.where(right, r + first_right[tau], first_left[sigma, rho]).ravel()
    parent = np.where(
        right,
        (sigma * m + tau_up[tau]) * p + rho,
        (sigma_rho_up[sigma, rho] // p * m + tau) * p + sigma_rho_up[sigma, rho] % p,
    ).ravel()
    depth = (length[left_word][sigma, rho] + length[right_word][tau]).ravel()

    moves = _move_tables(tab, st, J, simple)
    # the labels each move changes; their images are distinct, as the action
    # is cancellative (unique_predecessor)
    moved = [np.flatnonzero(t != np.arange(len(t))) for t in moves]
    key = depth * 2 * r + move
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    root = groups[0]  # the minimal orbit, the one label with no moves (key -1)
    down[root, root] = True
    for group in groups[1:]:
        k = move[group[0]]
        rows = down[parent[group]]
        rows[:, moves[k][moved[k]]] |= rows[:, moved[k]]
        down[group] = rows


def _degenerations(tab, st, sub):
    """(below, above): each label of stratum `st` (J, above) and each
    intersection component of its closure with the codimension-one stratum
    `sub` (I, below), as label indices.

    For v in W_J n W^I with l(rho v) = l(rho) - l(v), the component of
    (sigma, tau, rho) is the canonicalization of (sigma rho v, tau v) in
    stratum I: tau v = y * y' with y in W^I and y' in W_I, and
    sigma rho v y'^-1 = sigma' * rho' gives the label (sigma', y, rho').
    """
    mult, length = tab.mult, tab.length
    m, p = len(st.reps), len(st.par)
    m2, p2 = len(sub.reps), len(sub.par)
    v = st.par[sub.coset[st.par] % p2 == 0]
    ok = length[mult[st.par[:, None], v]] == length[st.par][:, None] - length[v]
    x = mult[mult[np.ix_(st.reps, st.par)][:, :, None], v]  # [sigma, rho, v]
    y = sub.coset[mult[st.reps[:, None], v]]  # [tau, v]
    y_par = sub.par[y % p2]
    z = sub.coset[mult[x[:, None], tab.inverse[y_par][None, :, None]]]
    below = sub.offset + ((z // p2) * m2 + (y // p2)[None, :, None]) * p2 + z % p2
    above = st.offset + np.arange(st.size).reshape(m, m, p, 1)
    ok = np.broadcast_to(ok, below.shape)
    return below[ok], np.broadcast_to(above, below.shape)[ok]


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

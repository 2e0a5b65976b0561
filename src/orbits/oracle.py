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
same-stratum order.  Crossing strata, the closure of an orbit O meets the
closure of a smaller stratum in the closures of O's intersection components,
and every smaller stratum lies in the closure of a codimension-one one
(Brion 1998).  So, with the strata taken in increasing order, O's down-set is
its within-stratum down-set together with the finished down-sets of its own
components at the codimension-one strata; no transitive closure is taken.

`oracle_poset` does all of this on the group tables `mult`, `inverse` and
`length`, in the label layout of `label_layout`: one move table per simple
root and side, one pass per stratum over the trie of move sequences, and the
degenerations per pair of strata, ORed into bit-packed down-sets.
`rank1_act`, `subword_closure_same_stratum` and `intersection_components`
are the scalar references it is tested against.  Nothing here reads the
Bruhat table `le` or calls the closed-form comparison criterion; agreement of
`oracle_poset` with `closure_poset` is checked, not assumed.
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
    or_rows,
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
    """The oracle's relation is not antisymmetric on some stratum; .cycle
    lists two of its labels, each below the other."""

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = cycle


def oracle_poset(rs, cap=DEFAULT_CAP, alternate=False):
    """Closure poset rebuilt from moves and degenerations, stratum by stratum.

    Each label's down-set is kept as a bit-packed row, filled in the order of
    label_layout, smaller strata first: (a) within its stratum J, every O1
    in subword_closure_same_stratum(O2), computed for all O2 at once by
    _down_sets; (b) OR the finished rows of its intersection components at
    each codimension-one smaller stratum (_degenerations, or_rows).  Both
    read only the tables mult, inverse and length.  Each stratum's final
    diagonal block must be antisymmetric: otherwise GeneratorCycleError names
    the first pair (i, j) of it in row-major order.  ClosurePoset.rows is the
    packed transpose of the down-sets, taken a chunk of rows at a time.
    """
    tab = rs.tables(cap)
    labels = enumerate_orbits(rs, cap=cap)
    n = len(labels)
    down = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # bit j of down[i]: j <= i
    layout = label_layout(tab)
    simple = np.array(
        [tab.idx(rs.simple_reflection(a)) for a in range(rs.rank)], dtype=np.intp
    )
    first = _first_letters(tab, simple, alternate)
    w0 = tab.idx(longest_element(rs))
    for J, st in layout.items():
        # the stratum's diagonal block of down, padded to whole bytes
        rows, shift = down[st.offset:st.offset + st.size], st.offset & 7
        cols = slice(st.offset >> 3, (st.offset + st.size + 7) >> 3)
        block = np.zeros((st.size, shift + st.size), dtype=bool)
        _down_sets(tab, st, J, simple, first, w0, block[:, shift:])
        rows[:, cols] = np.packbits(block, axis=1)
        for j in J:
            below, above = _degenerations(tab, st, layout[tuple(i for i in J if i != j)])
            or_rows(rows, above - st.offset, down, below)
        final = np.unpackbits(rows[:, cols], axis=1)[:, shift:shift + st.size]
        both = final & final.T
        np.fill_diagonal(both, 0)
        if both.any():
            cycle = [labels[st.offset + k] for k in np.argwhere(both)[0]]
            raise GeneratorCycleError(
                "oracle generator edges form a cycle: %s"
                % " <= ".join(label_str(L) for L in cycle + cycle[:1]),
                cycle,
            )

    rows = np.empty_like(down)  # the packed transpose: bit j of rows[i] is i <= j
    step = 8 * max(1, 2 ** 17 // n)  # down rows unpacked at a time, whole bytes of rows
    for c in range(0, n, step):
        chunk = np.unpackbits(down[c:c + step], axis=1, count=n)
        rows[:, c >> 3:(c + step) >> 3] = np.packbits(chunk.T.copy(), axis=1)
    return ClosurePoset(labels, rows)


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
    The length test picks components, not the order: each v failing it adds a
    C that meets the criterion with v and the u undoing canonicalization's slide,
    so C <= the label anyway (closure_poset's lemma); tests pin the component set.
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


def compare_posets(p1, p2):
    """Ordered pairs present in exactly one of the two posets (empty iff equal).

    Returns a list of {"below", "above", "only_in"} records in row-major
    order of the label indices, unpacking only the packed rows that differ;
    raises if the label universes differ.
    """
    if p1.labels != p2.labels:
        raise ValueError("posets are over different label universes")
    row = np.dtype((np.void, p1.rows.shape[1]))  # a packed row as one value
    return [
        {
            "below": label_str(p1.labels[i]),
            "above": label_str(p1.labels[j]),
            "only_in": "first" if p1.rows[i, j >> 3] & (0x80 >> (j & 7)) else "second",
        }
        for i in np.flatnonzero(p1.rows.view(row) != p2.rows.view(row))
        for j in np.flatnonzero(np.unpackbits(p1.rows[i] ^ p2.rows[i], count=len(p1.labels)))
        if j != i
    ]

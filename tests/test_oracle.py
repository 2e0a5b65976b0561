"""Move-generated oracle: minimal orbits, traces, subword sets, oracle poset."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from orbits.coxeter import (
    build_root_system,
    cartan_matrix,
    coset_decompose,
    greedy_word,
    longest_element,
)
from orbits.orbit_model import (
    LEFT,
    RIGHT,
    ClosurePoset,
    OrbitLabel,
    canonicalize,
    closure_poset,
    codim,
    enumerate_orbits,
    intersection_components,
    label_layout,
    label_str,
    rank1_act,
    closure_leq,
)
from orbits import cli, oracle
from orbits.oracle import GeneratorCycleError, compare_posets, oracle_poset


def rs_of(name):
    return build_root_system(cartan_matrix(name))


def all_subsets(rank):
    return [
        tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)
    ]


# ---------------------------------------------------------------- scalar references
# The same-stratum order one label at a time, on OrbitLabel and rank1_act;
# oracle._down_sets computes the same sets for a whole stratum on the tables.


def minimal_orbit(rs, J):
    """The closed P x P^- orbit of stratum J: canonicalize(J, w0, w0*w0J)."""
    w0 = longest_element(rs)
    w0J = longest_element(rs, J)
    return canonicalize(rs, J, w0, w0 * w0J)


def moves_for(O2, alternate=False):
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
    for side, alpha in moves_for(O2, alternate):
        reach |= {rank1_act(O, side, alpha) for O in reach}
    return reach


# ---------------------------------------------------------------- minimal orbit


def test_minimal_orbit_a1():
    rs = rs_of("A1")
    assert label_str(minimal_orbit(rs, (0,))) == "I=[1];sigma=e;tau=e;rho=1"
    assert label_str(minimal_orbit(rs, ())) == "I=[];sigma=1;tau=1;rho=e"


def test_minimal_orbit_a2_substratum():
    rs = rs_of("A2")
    O = minimal_orbit(rs, (0,))
    assert codim(O) == 5
    assert label_str(O) == "I=[1];sigma=1.2;tau=1.2;rho=1"


def test_minimal_orbit_shape():
    # minimal orbit of stratum J is (J, w0^J, w0^J, w0_J)
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        w0 = longest_element(rs)
        for J in all_subsets(rs.rank):
            O = minimal_orbit(rs, J)
            u, p = coset_decompose(w0, J)
            assert (O.I, O.sigma, O.tau, O.rho) == (tuple(J), u, u, p)


def test_minimal_orbit_is_stratum_minimum():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for J in all_subsets(rs.rank):
            m = minimal_orbit(rs, J)
            for O in enumerate_orbits(rs, J):
                assert closure_leq(m, O)
                assert codim(m) >= codim(O)


# ---------------------------------------------------------------- move traces


def replay(start, moves):
    O = start
    for side, alpha in moves:
        O = rank1_act(O, side, alpha)
    return O


def test_move_trace_replays_to_target():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            for alternate in (False, True):
                moves = moves_for(O, alternate=alternate)
                assert replay(minimal_orbit(rs, O.I), moves) == O


def test_move_trace_minimal_orbit_is_empty():
    rs = rs_of("B2")
    for J in all_subsets(rs.rank):
        assert moves_for(minimal_orbit(rs, J)) == ()


def test_replay_moves_applies_rank1_steps():
    rs = rs_of("A2")
    O = enumerate_orbits(rs, (0, 1))[0]  # the dense orbit: the longest move sequence
    moves = moves_for(O)
    assert moves
    assert replay(minimal_orbit(rs, O.I), moves) == O


# ---------------------------------------------------------------- subword sets


def test_subword_closure_worked_examples():
    rs = rs_of("A1")
    e, s = rs.identity, rs.simple_reflection(0)
    for J in all_subsets(1):
        m = minimal_orbit(rs, J)
        assert subword_closure_same_stratum(m) == {m}
    dense = OrbitLabel((0,), e, e, e)
    assert subword_closure_same_stratum(dense) == set(enumerate_orbits(rs, (0,)))
    assert subword_closure_same_stratum(OrbitLabel((), e, e, e)) == set(
        enumerate_orbits(rs, ())
    )


def test_subword_closure_downward_saturated():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for J in all_subsets(rs.rank):
            for O in enumerate_orbits(rs, J):
                S = subword_closure_same_stratum(O)
                assert O in S
                for O2 in S:
                    assert subword_closure_same_stratum(O2) <= S


def test_subword_closure_expression_independence():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            assert subword_closure_same_stratum(O) == subword_closure_same_stratum(
                O, alternate=True
            )


def test_subword_closure_matches_same_stratum_closure():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for J in all_subsets(rs.rank):
            labels = enumerate_orbits(rs, J)
            for O in labels:
                S = subword_closure_same_stratum(O)
                below = {O2 for O2 in labels if closure_leq(O2, O)}
                assert S == below


# ---------------------------------------------------------------- oracle poset


def test_oracle_poset_equals_closure_poset():
    for name in ("A1", "A1xA1", "A2", "B2", "G2", "A3", "A1xB2", "B3", "A2xA2"):
        rs = rs_of(name)
        assert compare_posets(closure_poset(rs), oracle_poset(rs)) == []


def test_oracle_poset_alternate_words():
    for name in ("B2", "A3", "A1xA2"):
        rs = rs_of(name)
        assert compare_posets(oracle_poset(rs), oracle_poset(rs, alternate=True)) == []


def test_oracle_poset_rejects_generator_cycle(monkeypatch):
    rs = rs_of("A1")
    labels = enumerate_orbits(rs)
    top = enumerate_orbits(rs, (0,))[0]
    degenerations = oracle._degenerations

    def from_top(*args):
        below, above = degenerations(*args)
        return np.full_like(below, labels.index(top)), above

    # every degeneration edge now starts at the top label, which the
    # within-stratum moves put above the whole dense stratum: a cycle
    monkeypatch.setattr(oracle, "_degenerations", from_top)
    with pytest.raises(GeneratorCycleError) as err:
        oracle_poset(rs)
    cycle = err.value.cycle
    assert top in cycle and len(cycle) == 2
    assert str(err.value).count(" <= ") == len(cycle)


def test_oracle_poset_rejects_cycle_inside_a_stratum(monkeypatch):
    down_sets = oracle._down_sets

    def symmetric(*args):
        down_sets(*args)
        down = args[-1]
        down |= down.T.copy()

    # every within-stratum relation now also holds the other way round
    monkeypatch.setattr(oracle, "_down_sets", symmetric)
    with pytest.raises(GeneratorCycleError) as err:
        oracle_poset(rs_of("A2"))
    cycle = err.value.cycle
    assert len(cycle) == 2 and cycle[0] != cycle[1] and cycle[0].I == cycle[1].I
    assert str(err.value).count(" <= ") == len(cycle)


def kahn_reference(rs, alternate=False):
    """oracle_poset's relation as the transitive closure of its generators:
    the within-stratum down-sets of _down_sets and the edges of
    _degenerations in one dense n x n matrix, closed by Kahn's algorithm with
    each label's packed up-set its own bit OR those of its successors."""
    tab = rs.tables()
    layout = label_layout(tab)
    n = sum(st.size for st in layout.values())
    simple = np.array([tab.idx(rs.simple_reflection(a)) for a in range(rs.rank)])
    first = oracle._first_letters(tab, simple, alternate)
    w0 = tab.idx(longest_element(rs))
    gen = np.zeros((n, n), dtype=bool)  # gen[i, j]: labels[i] is below labels[j]
    for J, st in layout.items():
        block = slice(st.offset, st.offset + st.size)
        oracle._down_sets(tab, st, J, simple, first, w0, gen[block, block].T)
        for j in J:
            sub = layout[tuple(i for i in J if i != j)]
            below, above = oracle._degenerations(tab, st, sub)
            gen[below, above] = True
    np.fill_diagonal(gen, False)

    succ = [np.flatnonzero(row) for row in gen]
    indegree = np.count_nonzero(gen, axis=0)
    order = list(np.flatnonzero(indegree == 0))
    for i in order:
        js = succ[i]
        indegree[js] -= 1
        order.extend(js[indegree[js] == 0])
    assert len(order) == n, "the generators form a cycle"
    up = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    for i in reversed(order):
        if len(succ[i]):
            up[i] = np.bitwise_or.reduce(up[succ[i]], axis=0)
        up[i, i >> 3] |= 0x80 >> (i & 7)
    return np.unpackbits(up, axis=1, count=n).view(bool)


@pytest.mark.parametrize(
    "name", ["A1", "A1xA1", "A2", "B2", "G2", "A3", "A1xA2", "A1xB2", "B3", "C3"]
)
@pytest.mark.parametrize("alternate", [False, True])
def test_oracle_poset_equals_the_transitive_closure(name, alternate):
    # a label's own components suffice: the stratum-by-stratum ORs give the
    # transitive closure of all the generators
    rs = rs_of(name)
    got = oracle_poset(rs, alternate=alternate).leq
    assert np.array_equal(got, kahn_reference(rs, alternate))


def test_oracle_poset_peak_memory():
    # beside the packed down-sets and their packed transpose (n ceil(n/8)
    # bytes each), one stratum block and one chunk: no n x n array
    tracemalloc.start()
    try:
        p = oracle_poset(rs_of("B3"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - 2 * p.rows.nbytes < 16 * 2 ** 20


def test_compare_posets_peak_memory():
    # whole packed rows are compared in place, and only differing rows are
    # unpacked: under 1 MB on B3, where one packed relation is 6 MB
    rs = rs_of("B3")
    p, q = closure_poset(rs), oracle_poset(rs)
    tracemalloc.start()
    try:
        assert compare_posets(p, q) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_rank_zero_oracle():
    rs = build_root_system([])
    p = oracle_poset(rs)
    assert len(p.labels) == 1


# ---------------------------------------------------------------- table oracle


def tables_of(name):
    """(rs, tables, layout, simple reflection indices), as oracle_poset has them."""
    rs = rs_of(name)
    tab = rs.tables()
    simple = np.array([tab.idx(rs.simple_reflection(a)) for a in range(rs.rank)])
    return rs, tab, label_layout(tab), simple


@pytest.mark.parametrize("name", ["A1xA1", "A2", "B2", "G2", "A3", "B3"])
def test_move_tables_equal_rank1_act(name):
    rs, tab, layout, simple = tables_of(name)
    labels = enumerate_orbits(rs)
    for J, st in layout.items():
        stratum = labels[st.offset:st.offset + st.size]
        moves = oracle._move_tables(tab, st, J, simple)
        for k, side in enumerate([LEFT] * rs.rank + [RIGHT] * rs.rank):
            alpha = k % rs.rank
            assert [stratum[i] for i in moves[k]] == [
                rank1_act(L, side, alpha) for L in stratum
            ]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "A1xA2"])
def test_degenerations_equal_intersection_components(name):
    rs, tab, layout, _ = tables_of(name)
    labels = enumerate_orbits(rs)
    for J, st in layout.items():
        for j in J:
            I = tuple(i for i in J if i != j)
            below, above = oracle._degenerations(tab, st, layout[I])
            for i in range(st.offset, st.offset + st.size):
                got = {labels[b] for b in below[above == i]}
                assert got == set(intersection_components(labels[i], I))


@pytest.mark.parametrize("name", ["G2", "A3", "B3"])
@pytest.mark.parametrize("alternate", [False, True])
def test_first_letters_spell_greedy_words(name, alternate):
    rs, tab, _, simple = tables_of(name)
    first = oracle._first_letters(tab, simple, alternate)
    letters = range(rs.rank - 1, -1, -1) if alternate else range(rs.rank)
    for x, w in enumerate(tab.elements):
        word = []
        while first[x] >= 0:
            word.append(int(first[x]))
            x = tab.mult[simple[first[x]], x]
        assert x == tab.idx(rs.identity)
        assert tuple(word) == greedy_word(w, letters)


SRC = pathlib.Path(oracle.__file__)
FORMULA_NAMES = {
    "le",
    "bruhat_leq",
    "closure_poset",
    "closure_leq",
    "closure_leq_witness",
    "intersection_components",
    "_shortening",
}


def names_in(tree):
    """Every name and attribute a syntax tree reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_names_in_finds_reads_and_imports():
    tree = ast.parse("from .coxeter import bruhat_leq\nx = tab.le[0, 1]\n")
    assert FORMULA_NAMES & names_in(tree) == {"bruhat_leq", "le"}


def test_oracle_is_independent_of_the_formula():
    # the move oracle reads the group tables mult, inverse and length only:
    # never the Bruhat table, the criterion or its degeneration search
    assert FORMULA_NAMES & names_in(ast.parse(SRC.read_text())) == set()
    source = (SRC.parent / "orbit_model.py").read_text()
    layout = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "label_layout"
    )
    assert "le" not in names_in(layout)


def test_verify_fails_without_the_exchange_moves(monkeypatch, capsys):
    left_move = oracle._left_move

    def no_exchange(*args):
        sigma_to, rho_to = left_move(*args)
        return sigma_to, np.tile(np.arange(rho_to.shape[1]), (len(rho_to), 1))

    monkeypatch.setattr(oracle, "_left_move", no_exchange)
    assert cli.main(["verify", "--type", "A2", "--suite", "poset"]) == 1
    assert capsys.readouterr().out.startswith("FAIL\n")


def test_verify_fails_without_degenerations(monkeypatch, capsys):
    def none(*args):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty

    monkeypatch.setattr(oracle, "_degenerations", none)
    assert cli.main(["verify", "--type", "A2", "--suite", "poset"]) == 1
    assert capsys.readouterr().out.startswith("FAIL\n")


# ---------------------------------------------------------------- poset diffs


def test_compare_posets_identical():
    rs = rs_of("A1")
    p = closure_poset(rs)
    assert compare_posets(p, p) == []


def test_compare_posets_different_universes():
    with pytest.raises(ValueError):
        compare_posets(closure_poset(rs_of("A1")), closure_poset(rs_of("A2")))


def test_compare_posets_reports_removed_edge():
    rs = rs_of("A1")
    p = closure_poset(rs)
    leq = p.leq.copy()
    i, j = p.hasse[0]
    leq[i, j] = False
    q = ClosurePoset(p.system, np.packbits(leq, axis=1))
    diff = compare_posets(p, q)
    assert diff == [
        {
            "below": label_str(p.labels[i]),
            "above": label_str(p.labels[j]),
            "only_in": "first",
        }
    ]
    # and symmetrically
    diff2 = compare_posets(q, p)
    assert [d["only_in"] for d in diff2] == ["second"]


def test_compare_posets_ignores_the_diagonal():
    p = closure_poset(rs_of("A1"))
    leq = p.leq.copy()
    np.fill_diagonal(leq, False)
    assert compare_posets(p, ClosurePoset(p.system, np.packbits(leq, axis=1))) == []


def test_compare_posets_row_major_order():
    p = closure_poset(rs_of("A2"))
    want = p.leq
    leq = want.copy()
    flipped = [(40, 3), (2, 70), (2, 5), (40, 1), (77, 76)]
    for i, j in flipped:
        leq[i, j] = not leq[i, j]
    diff = compare_posets(p, ClosurePoset(p.system, np.packbits(leq, axis=1)))
    names = [label_str(L) for L in p.labels]
    assert [(names.index(d["below"]), names.index(d["above"])) for d in diff] == sorted(flipped)
    for d, (i, j) in zip(diff, sorted(flipped)):
        assert d["only_in"] == ("first" if want[i, j] else "second")

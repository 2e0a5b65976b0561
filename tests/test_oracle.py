"""Move-generated oracle: minimal orbits, traces, subword sets, oracle poset."""

import numpy as np
import pytest

from orbits.coxeter import (
    build_root_system,
    cartan_matrix,
    coset_decompose,
    longest_element,
)
from orbits.orbit_model import (
    ClosurePoset,
    OrbitLabel,
    closure_poset,
    codim,
    enumerate_orbits,
    label_str,
    rank1_act,
    closure_leq,
)
from orbits import oracle
from orbits.oracle import (
    GeneratorCycleError,
    compare_posets,
    minimal_orbit,
    oracle_poset,
    subword_closure_same_stratum,
)


def rs_of(name):
    return build_root_system(cartan_matrix(name))


def all_subsets(rank):
    return [
        tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)
    ]


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
                moves = oracle._moves_for(O, alternate=alternate)
                assert replay(minimal_orbit(rs, O.I), moves) == O


def test_move_trace_minimal_orbit_is_empty():
    rs = rs_of("B2")
    for J in all_subsets(rs.rank):
        assert oracle._moves_for(minimal_orbit(rs, J)) == ()


def test_replay_moves_applies_rank1_steps():
    rs = rs_of("A2")
    O = enumerate_orbits(rs, (0, 1))[0]  # the dense orbit: the longest move sequence
    moves = oracle._moves_for(O)
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
    for name in ("A1", "A1xA1", "A2", "B2", "G2", "A3"):
        rs = rs_of(name)
        assert compare_posets(closure_poset(rs), oracle_poset(rs)) == []


def test_oracle_poset_alternate_words():
    rs = rs_of("B2")
    assert compare_posets(oracle_poset(rs), oracle_poset(rs, alternate=True)) == []


def test_oracle_poset_rejects_generator_cycle(monkeypatch):
    rs = rs_of("A1")
    top = enumerate_orbits(rs, (0,))[0]
    # every degeneration edge now starts at the top label, which the
    # within-stratum moves put above the whole dense stratum: a cycle
    monkeypatch.setattr(oracle, "intersection_components", lambda L, I, cap: [top])
    with pytest.raises(GeneratorCycleError) as err:
        oracle_poset(rs)
    cycle = err.value.cycle
    assert top in cycle and len(cycle) == 2
    assert str(err.value).count(" <= ") == len(cycle)


def test_rank_zero_oracle():
    rs = build_root_system([])
    p = oracle_poset(rs)
    assert len(p.labels) == 1


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
    q = ClosurePoset(p.labels, leq)
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
    assert compare_posets(p, ClosurePoset(p.labels, leq)) == []


def test_compare_posets_row_major_order():
    p = closure_poset(rs_of("A2"))
    leq = p.leq.copy()
    flipped = [(40, 3), (2, 70), (2, 5), (40, 1), (77, 76)]
    for i, j in flipped:
        leq[i, j] = not leq[i, j]
    diff = compare_posets(p, ClosurePoset(p.labels, leq))
    names = [label_str(L) for L in p.labels]
    assert [(names.index(d["below"]), names.index(d["above"])) for d in diff] == sorted(flipped)
    for d, (i, j) in zip(diff, sorted(flipped)):
        assert d["only_in"] == ("first" if p.leq[i, j] else "second")

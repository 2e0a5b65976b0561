"""Orbit labels, dimensions, rank-1 moves, closure order, components, posets."""

import functools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbits.coxeter import (
    ASCENT_IN_WJ,
    DESCENT_IN_WJ,
    EXCHANGE,
    CapExceeded,
    WeightFunction,
    build_root_system,
    bruhat_leq,
    cartan_matrix,
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
from orbits.orbit_model import (
    LEFT,
    RIGHT,
    ClosurePoset,
    LabelParseError,
    NotGradedError,
    OrbitLabel,
    canonicalize,
    closure_leq,
    closure_leq_witness,
    closure_poset,
    codim,
    enumerate_orbits,
    intersection_components,
    is_stable,
    label_layout,
    label_str,
    parse_label,
    point_count_poly,
    poly_eval,
    poly_str,
    rank1_act,
    split_dimension,
    strata,
    strata_csv,
    stratum_leq,
    unique_predecessor,
)

ORBIT_COUNTS = {
    "A1": 6,
    "A1xA1": 36,
    "A2": 78,
    "B2": 136,
    "G2": 300,
    "A3": 1800,
}


def rs_of(name):
    return build_root_system(cartan_matrix(name))


def all_subsets(rank):
    return [
        tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)
    ]


def moves(rs):
    return [(side, a) for side in (LEFT, RIGHT) for a in range(rs.rank)]


# ---------------------------------------------------------------- enumeration


def test_orbit_counts():
    for name, count in ORBIT_COUNTS.items():
        rs = rs_of(name)
        labels = enumerate_orbits(rs)
        assert len(labels) == count
        assert len(set(labels)) == count


def test_orbit_count_formula_per_stratum():
    for name in ("A2", "B2", "G2", "A3"):
        rs = rs_of(name)
        W = len(enumerate_group(rs))
        for J in all_subsets(rs.rank):
            wj = sum(1 for w in enumerate_group(rs) if in_parabolic(w, J))
            assert len(enumerate_orbits(rs, J)) == W * W // wj


def test_rank_zero_single_label():
    rs = build_root_system([])
    labels = enumerate_orbits(rs)
    assert len(labels) == 1
    assert label_str(labels[0]) == "I=[];sigma=e;tau=e;rho=e"


def test_enumeration_order_is_canonical():
    rs = rs_of("B2")
    labels = enumerate_orbits(rs)

    def key(O):  # stratum by (size, indices), then ShortLex on sigma, tau, rho
        return ((len(O.I), O.I), *((w.length, w.word) for w in (O.sigma, O.tau, O.rho)))

    assert labels == sorted(labels, key=key)
    # strata appear by (size, indices)
    seen = [O.I for O in labels]
    order = sorted(set(seen), key=lambda I: (len(I), I))
    assert seen == sorted(seen, key=order.index)


def test_label_validation():
    rs = rs_of("A2")
    s1 = rs.simple_reflection(0)
    with pytest.raises(ValueError):
        OrbitLabel((0,), s1, rs.identity, rs.identity)  # sigma not minimal mod W_I
    with pytest.raises(ValueError):
        OrbitLabel((0,), rs.identity, s1, rs.identity)  # tau not minimal
    with pytest.raises(ValueError):
        OrbitLabel((0,), rs.identity, rs.identity, rs.simple_reflection(1))  # rho outside W_I
    with pytest.raises(ValueError):
        OrbitLabel((7,), rs.identity, rs.identity, rs.identity)  # bad stratum index


# ---------------------------------------------------------------- serialization


def test_label_round_trip():
    for name in ("A1", "A2", "B2", "A1xA1"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            s = label_str(O)
            assert parse_label(rs, s) == O
            assert label_str(parse_label(rs, s)) == s


def test_label_format():
    rs = rs_of("A2")
    w = parse_word(rs, "1.2")
    O = OrbitLabel((0,), w, rs.identity, rs.identity)
    assert label_str(O) == "I=[1];sigma=1.2;tau=e;rho=e"


def test_parse_label_rejects_garbage():
    rs = rs_of("A2")
    for bad in ("", "sigma=e", "I=[1];sigma=e;tau=e", "I=[1]stuff;sigma=e;tau=e;rho=e"):
        with pytest.raises(LabelParseError):
            parse_label(rs, bad)


def test_parse_label_rejects_non_canonical_with_suggestion():
    rs = rs_of("A2")
    # sigma = s1.s2 is not minimal modulo W_{2}
    with pytest.raises(LabelParseError) as exc:
        parse_label(rs, "I=[2];sigma=1.2;tau=e;rho=2")
    assert exc.value.suggestion is not None
    fixed = parse_label(rs, exc.value.suggestion)
    assert label_str(fixed) == exc.value.suggestion
    # non-canonical word spelling is also rejected
    with pytest.raises(LabelParseError):
        parse_label(rs, "I=[];sigma=2.1.2;tau=e;rho=e")  # canonical is 1.2.1
    with pytest.raises(LabelParseError):
        parse_label(rs, "I=[];sigma=1.1;tau=e;rho=e")  # non-reduced word


# ---------------------------------------------------------------- canonicalize


def test_canonicalize_worked_examples():
    rs = rs_of("A2")
    sa, sb = rs.simple_reflection(0), rs.simple_reflection(1)
    # trivial stratum: nothing to do
    O = canonicalize(rs, (), sa * sb, sa)
    assert (O.sigma, O.tau, O.rho) == (sa * sb, sa, rs.identity)
    # W_I gauge absorbed: ({a}, s_b s_a, s_a) -> ({a}, s_b, e, e)
    O = canonicalize(rs, (0,), sb * sa, sa)
    assert label_str(O) == "I=[1];sigma=2;tau=e;rho=e"


def test_canonicalize_fixes_canonical_labels():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            assert canonicalize(rs, O.I, O.sigma * O.rho, O.tau) == O


def test_canonicalize_gauge_invariance_rank2():
    for name in ("A1", "A2", "B2", "A1xA1"):
        rs = rs_of(name)
        W = enumerate_group(rs)
        for I in all_subsets(rs.rank):
            par = [w for w in W if in_parabolic(w, I)]
            for x in W:
                for y in W:
                    base = canonicalize(rs, I, x, y)
                    for v in par:
                        assert canonicalize(rs, I, x * v, y * v) == base


def test_canonicalize_gauge_invariance_rank3_random():
    rng = random.Random(20260817)
    for name in ("A3", "B3"):
        rs = rs_of(name)
        W = enumerate_group(rs)
        subsets = all_subsets(rs.rank)
        for _ in range(300):
            I = subsets[rng.randrange(len(subsets))]
            par = [w for w in W if in_parabolic(w, I)]
            x, y = rng.choice(W), rng.choice(W)
            v = rng.choice(par)
            assert canonicalize(rs, I, x * v, y * v) == canonicalize(rs, I, x, y)


# ---------------------------------------------------------------- dimensions


def test_enumerate_orbits_checks_the_cap_before_listing_strata():
    rs = rs_of("A20")  # 2^20 strata, |W| = 21!
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            enumerate_orbits(rs, cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_strata_and_stratum_leq():
    rs = rs_of("A2")
    assert strata(rs) == [(), (0,), (1,), (0, 1)]
    for J in all_subsets(2):
        assert stratum_leq((), J)
        assert stratum_leq((0, 1), J) == (J == (0, 1))
    assert not stratum_leq((0,), (1,))


def test_a1_dimensions_and_polynomials():
    rs = rs_of("A1")
    want = {
        "I=[];sigma=e;tau=e;rho=e": (2, (0, 0, 1)),
        "I=[];sigma=e;tau=1;rho=e": (1, (0, 1)),
        "I=[];sigma=1;tau=e;rho=e": (1, (0, 1)),
        "I=[];sigma=1;tau=1;rho=e": (0, (1,)),
        "I=[1];sigma=e;tau=e;rho=e": (3, (0, 0, -1, 1)),
        "I=[1];sigma=e;tau=e;rho=1": (2, (0, -1, 1)),
    }
    got = {
        label_str(O): (split_dimension(O), point_count_poly(O))
        for O in enumerate_orbits(rs)
    }
    assert got == want


def test_codim_worked_examples():
    rs = rs_of("A1")
    s = rs.simple_reflection(0)
    assert codim(OrbitLabel((0,), rs.identity, rs.identity, rs.identity)) == 0
    assert codim(OrbitLabel((), s, s, rs.identity)) == 2
    rs2 = rs_of("A2")
    rho = parse_word(rs2, "1.2")
    assert codim(OrbitLabel((0, 1), rs2.identity, rs2.identity, rho)) == 2


def test_codim_is_weighted_length_sum():
    rs = rs_of("B2")
    c = WeightFunction.from_orbit_weights(rs, {0: 2, 1: 3})
    for O in enumerate_orbits(rs):
        assert codim(O) == O.sigma.length + O.tau.length + O.rho.length
        assert codim(O, c) == (
            weighted_length(O.sigma, c)
            + weighted_length(O.tau, c)
            + weighted_length(O.rho, c)
        )


def test_split_dimension_consistency():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        N = len(rs.nondivisible_positive)
        for O in enumerate_orbits(rs):
            dim = split_dimension(O)
            assert dim == 2 * N - (O.sigma * O.rho).length - O.tau.length + len(O.I)
            # codim is codimension inside the stratum closure
            dense = OrbitLabel(O.I, rs.identity, rs.identity, rs.identity)
            assert split_dimension(dense) - dim == codim(O)


def test_split_dimension_rejects_non_unit_weights():
    rs = rs_of("B2")
    c = WeightFunction.from_orbit_weights(rs, {0: 2})
    O = enumerate_orbits(rs)[0]
    with pytest.raises(ValueError):
        split_dimension(O, c)
    with pytest.raises(ValueError):
        point_count_poly(O, c)


def test_point_count_poly_structure():
    for name in ("A1", "A2", "B2"):
        rs = rs_of(name)
        N = len(rs.nondivisible_positive)
        for O in enumerate_orbits(rs):
            coeffs = point_count_poly(O)
            assert len(coeffs) - 1 == split_dimension(O)  # degree = dimension
            assert coeffs[-1] == 1  # monic
            # lowest term: q^{2N - l(sigma rho) - l(tau)} * (+-1)
            low = 2 * N - (O.sigma * O.rho).length - O.tau.length
            assert all(c == 0 for c in coeffs[:low])
            assert coeffs[low] in (1, -1)


def test_point_count_sum_a1_is_projective_space():
    rs = rs_of("A1")
    total = [0] * 4
    for O in enumerate_orbits(rs):
        for k, c in enumerate(point_count_poly(O)):
            total[k] += c
    assert total == [1, 1, 1, 1]  # 1 + q + q^2 + q^3


def test_point_count_sum_a2_counts_blowup_not_p8():
    # The label polynomials sum to the point count of the compactification,
    # which for n = 3 is the blow-up of P^8 along the rank-1 Segre locus:
    # |P^8| + |P^2 x P^2| * (|P^3| - 1), NOT |P^8| itself.
    rs = rs_of("A2")
    for q in (2, 3):
        total = sum(poly_eval(point_count_poly(O), q) for O in enumerate_orbits(rs))
        p8 = (q ** 9 - 1) // (q - 1)
        segre = ((q ** 3 - 1) // (q - 1)) ** 2
        p3 = (q ** 4 - 1) // (q - 1)
        assert total == p8 + segre * (p3 - 1)
        assert total != p8
    assert sum(poly_eval(point_count_poly(O), 2) for O in enumerate_orbits(rs)) == 1197
    assert sum(poly_eval(point_count_poly(O), 3) for O in enumerate_orbits(rs)) == 16432


def test_poly_str():
    rs = rs_of("A1")
    by_name = {label_str(O): O for O in enumerate_orbits(rs)}
    assert poly_str(point_count_poly(by_name["I=[];sigma=1;tau=1;rho=e"])) == "1"
    assert poly_str(point_count_poly(by_name["I=[1];sigma=e;tau=e;rho=1"])) == "q^2-q"
    assert poly_str(point_count_poly(by_name["I=[];sigma=e;tau=e;rho=e"])) == "q^2"
    assert poly_str((0,)) == "0"
    assert poly_str((2, 0, 3)) == "3*q^2+2"


# ---------------------------------------------------------------- rank-1 moves


def test_rank1_act_worked_examples():
    rs = rs_of("A2")
    sa, sb = rs.simple_reflection(0), rs.simple_reflection(1)
    e = rs.identity
    assert rank1_act(OrbitLabel((), sa * sb, e, e), LEFT, 0) == OrbitLabel((), sb, e, e)
    assert rank1_act(OrbitLabel((1,), e, e, sb), LEFT, 1) == OrbitLabel((1,), e, e, e)
    for I in all_subsets(2):
        dense = OrbitLabel(I, e, e, e)
        for side, a in moves(rs):
            assert rank1_act(dense, side, a) == dense


def test_stability_matches_fixed_points():
    for name in ("A2", "B2", "G2", "A3"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            for side, a in moves(rs):
                stable = is_stable(O, side, a)
                assert stable == (rank1_act(O, side, a) == O)
                srp = rs.simple_reflection(a) * O.sigma * O.rho
                trp = rs.simple_reflection(a) * O.tau * O.rho.inverse()
                if side == LEFT:
                    assert stable == (srp.length > (O.sigma * O.rho).length)
                else:
                    assert stable == (trp.length > (O.tau * O.rho.inverse()).length)


def test_is_stable_worked_examples():
    rs1 = rs_of("A1")
    s = rs1.simple_reflection(0)
    assert not is_stable(OrbitLabel((0,), rs1.identity, rs1.identity, s), LEFT, 0)
    rs2 = rs_of("A2")
    sb = rs2.simple_reflection(1)
    assert is_stable(OrbitLabel((), sb, rs2.identity, rs2.identity), LEFT, 0)


def test_rank1_act_injective_on_unstable():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        labels = enumerate_orbits(rs)
        for side, a in moves(rs):
            images = {}
            for O in labels:
                if not is_stable(O, side, a):
                    img = rank1_act(O, side, a)
                    assert img not in images, (name, side, a)
                    images[img] = O


def test_unique_predecessor_inverse_laws():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        labels = enumerate_orbits(rs)
        for side, a in moves(rs):
            for O in labels:
                if is_stable(O, side, a):
                    P = unique_predecessor(O, side, a)
                    assert P != O
                    assert not is_stable(P, side, a)
                    assert rank1_act(P, side, a) == O
                else:
                    with pytest.raises(ValueError):
                        unique_predecessor(O, side, a)
                    assert unique_predecessor(rank1_act(O, side, a), side, a) == O


def test_unique_predecessor_worked_examples():
    rs = rs_of("A2")
    sa, sb = rs.simple_reflection(0), rs.simple_reflection(1)
    e = rs.identity
    assert unique_predecessor(OrbitLabel((), sb, e, e), LEFT, 0) == OrbitLabel((), sa * sb, e, e)
    rs1 = rs_of("A1")
    s1 = rs1.simple_reflection(0)
    assert unique_predecessor(
        OrbitLabel((0,), rs1.identity, rs1.identity, rs1.identity), LEFT, 0
    ) == OrbitLabel((0,), rs1.identity, rs1.identity, s1)
    with pytest.raises(ValueError):
        unique_predecessor(OrbitLabel((), sa, e, e), LEFT, 0)


def right_act_reference(O, alpha):
    """rank1_act(O, RIGHT, alpha) written out on tau and rho s_b."""
    rs = O.system
    case, beta = parabolic_trichotomy(O.tau, O.I, alpha)
    if case == DESCENT_IN_WJ:
        return OrbitLabel(O.I, O.sigma, rs.simple_reflection(alpha) * O.tau, O.rho)
    if case == EXCHANGE:
        rho2 = O.rho * rs.simple_reflection(beta)
        if rho2.length < O.rho.length:
            return OrbitLabel(O.I, O.sigma, O.tau, rho2)
    return O


def right_predecessor_reference(O, alpha):
    """unique_predecessor(O, RIGHT, alpha) written out on tau and rho s_b."""
    rs = O.system
    case, beta = parabolic_trichotomy(O.tau, O.I, alpha)
    if case == ASCENT_IN_WJ:
        return OrbitLabel(O.I, O.sigma, rs.simple_reflection(alpha) * O.tau, O.rho)
    if case == EXCHANGE:
        rho2 = O.rho * rs.simple_reflection(beta)
        if rho2.length > O.rho.length:
            return OrbitLabel(O.I, O.sigma, O.tau, rho2)
        raise ValueError("unstable label: exchange case with l(rho s_b) < l(rho)")
    raise ValueError("unstable label: descent case l(s_a tau) < l(tau)")


def outcome(f, *args):
    """f(*args), or ValueError when it raises one."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def test_right_moves_match_the_mirrored_reference():
    for name in ("A1", "A1xA1", "A2", "B2", "G2", "A3", "B3"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            for a in range(rs.rank):
                assert rank1_act(O, RIGHT, a) == right_act_reference(O, a)
                assert outcome(unique_predecessor, O, RIGHT, a) == outcome(
                    right_predecessor_reference, O, a
                )


def test_rank1_calculus_rejects_an_unknown_side():
    O = enumerate_orbits(rs_of("A1"))[0]
    for f in (rank1_act, is_stable, unique_predecessor):
        with pytest.raises(ValueError, match="side must be LEFT or RIGHT"):
            f(O, "up", 0)


def test_rank1_act_codim_drop():
    rs = rs_of("B2")
    unit = WeightFunction.unit(rs)
    heavy = WeightFunction.from_orbit_weights(rs, {0: 2, 1: 3})
    for O in enumerate_orbits(rs):
        for side, a in moves(rs):
            img = rank1_act(O, side, a)
            assert split_dimension(img) >= split_dimension(O)
            if img != O:
                assert split_dimension(img) == split_dimension(O) + 1
                for c in (unit, heavy):
                    drop = codim(O, c) - codim(img, c)
                    assert drop == weighted_length(rs.simple_reflection(a), c)


# ---------------------------------------------------------------- closure order


def test_closure_leq_worked_examples():
    rs = rs_of("A1")
    e = rs.identity
    s = rs.simple_reflection(0)
    dense = OrbitLabel((0,), e, e, e)
    for O in enumerate_orbits(rs):
        assert closure_leq(O, dense)
    O1 = OrbitLabel((), e, s, e)
    O2 = OrbitLabel((0,), e, e, s)
    assert closure_leq(O1, O2)
    u, v = closure_leq_witness(O1, O2)
    assert (word_str(u), word_str(v)) == ("e", "1")
    assert not closure_leq(OrbitLabel((), e, e, e), O2)


def test_closure_same_stratum_delta_examples():
    rs = rs_of("A1")
    e, s = rs.identity, rs.simple_reflection(0)
    hi = OrbitLabel((0,), e, e, e)
    lo = OrbitLabel((0,), e, e, s)
    assert closure_leq(lo, hi)
    assert not closure_leq(hi, lo)
    assert closure_leq(lo, lo)
    assert not closure_leq(hi, OrbitLabel((), e, e, e))


def test_closure_requires_stratum_inclusion():
    rs = rs_of("A2")
    for O1 in enumerate_orbits(rs):
        for O2 in enumerate_orbits(rs):
            if closure_leq(O1, O2):
                assert stratum_leq(O1.I, O2.I)


def test_stratum_delta_recovers_bruhat():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        delta = tuple(range(rs.rank))
        labels = enumerate_orbits(rs, delta)
        for O1 in labels:
            for O2 in labels:
                assert closure_leq(O1, O2) == bruhat_leq(O2.rho, O1.rho)


def test_closure_dimension_monotonicity():
    rs = rs_of("B2")
    labels = enumerate_orbits(rs)
    leq = closure_poset(rs).leq
    for i, O1 in enumerate(labels):
        for j, O2 in enumerate(labels):
            if leq[i, j] and O1 != O2:
                assert split_dimension(O1) < split_dimension(O2)


def test_rank1_act_moves_up_in_closure():
    rs = rs_of("A2")
    for O in enumerate_orbits(rs):
        for side, a in moves(rs):
            img = rank1_act(O, side, a)
            assert closure_leq(O, img)


def test_closure_witness_is_a_certificate():
    rs = rs_of("B2")
    labels = enumerate_orbits(rs)
    for O1 in labels[::7]:
        for O2 in labels[::5]:
            wit = closure_leq_witness(O1, O2)
            assert (wit is not None) == closure_leq(O1, O2)
            if wit is not None:
                u, v = wit
                assert in_parabolic(u, O1.I)
                assert in_parabolic(v, O2.I)
                assert all(v.sends_positive(j) for j in O1.I)
                assert (O2.rho * v).length == O2.rho.length - v.length
                assert bruhat_leq(O2.sigma * O2.rho * v, O1.sigma * O1.rho * u)
                assert bruhat_leq(O2.tau * v * u.inverse(), O1.tau)


def test_length_condition_equivalence():
    # l(sigma rho) = l(sigma rho v) + l(v)  <=>  l(rho) = l(rho v) + l(v)
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = rs_of(name)
        for J in all_subsets(rs.rank):
            par = [w for w in enumerate_group(rs) if in_parabolic(w, J)]
            reps = min_coset_reps(rs, J)
            for sigma in reps:
                for rho in par:
                    sr = sigma * rho
                    for v in par:
                        lhs = (sr * v).length == sr.length - v.length
                        rhs = (rho * v).length == rho.length - v.length
                        assert lhs == rhs


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "A1xB2", "A2xA2"])
def test_length_condition_is_redundant_in_the_closure_order(name):
    """closure_poset's lemma, run on the tables alone: for every stratum pair
    I1 c I2, rho2 in W_I2 and v in W_I2 n W^I1 with l(rho2 v) != l(rho2) -
    l(v), and every a2 = sigma2 rho2, a1 in W and u in W_I1 with a2 v <= a1 u,
    steps 1-4 give an admissible v' with a2 v' <= a1 u u3 and
    v' (u u3)^-1 <= v u^-1."""
    rs = rs_of(name)
    tab = rs.tables()
    mult, inv, le, length = tab.mult, tab.inverse, tab.le, tab.length
    simple = np.array([tab.idx(rs.simple_reflection(a)) for a in range(rs.rank)])
    # the first letter of each greedy word: its smallest left descent
    first = simple[np.argmax(length[mult[simple]] < length, axis=0)]
    layout = label_layout(tab)
    W = np.arange(len(length))
    checked = 0
    for I1, st1 in layout.items():
        p1 = len(st1.par)
        for I2, st2 in layout.items():
            if not set(I1) <= set(I2):
                continue
            rho, v = np.meshgrid(st2.par, np.intersect1d(st2.par, st1.reps), indexing="ij")
            bad = length[mult[rho, v]] != length[rho] - length[v]
            rho, v = rho[bad], v[bad]
            # 1. the letters of v's greedy word that shorten rho2 spell y0
            y0, x, rest = np.zeros_like(v), rho, v
            for _ in range(length.max()):
                s = first[rest]
                keep = (rest != 0) & (length[mult[x, s]] < length[x])
                x, y0 = np.where(keep, mult[x, s], x), np.where(keep, mult[y0, s], y0)
                rest = np.where(rest != 0, mult[s, rest], rest)
            assert np.array_equal(x, mult[rho, y0]) and le[y0, v].all()
            # 2. y0 = v' u0 with v' in W^I1 and u0 in W_I1
            vp = st1.reps[st1.coset[y0] // p1]
            u0 = st1.par[st1.coset[y0] % p1]
            assert np.isin(vp, st2.par).all() and np.isin(vp, st1.reps).all()
            assert (length[mult[rho, vp]] == length[rho] - length[vp]).all()
            # 3. the letters of u0^-1 that lengthen a1 u spell u3, over
            # [rho2 and v, a1, u]
            a1u = mult[W[None, :, None], st1.par[None, None, :]]
            x, u3, rest = a1u, 0, inv[u0][:, None, None]
            for _ in range(length.max()):
                s = first[rest]
                keep = (rest != 0) & (length[mult[x, s]] > length[x])
                x, u3 = np.where(keep, mult[x, s], x), np.where(keep, mult[u3, s], u3)
                rest = np.where(rest != 0, mult[s, rest], rest)
            uu3 = mult[st1.par[None, None, :], u3]
            assert np.array_equal(x, mult[W[None, :, None], uu3])
            # the hypothesis a2 v <= a1 u over [sigma2, rho2 and v, a1, u]
            a2 = mult[st2.reps[:, None], rho[None, :]]
            a2v, a2vp = mult[a2, v], mult[a2, vp]
            hyp = le[a2v[:, :, None, None], a1u[None]]
            assert le[a2vp[:, :, None, None], x[None]][hyp].all()
            # 4. v' (u u3)^-1 <= v u^-1
            tau = le[mult[vp[:, None, None], inv[uu3]], mult[v[:, None, None], inv[st1.par]]]
            assert tau[hyp.any(axis=0)].all()
            checked += int(hyp.sum())
    assert checked > 0


# ---------------------------------------------------------------- components


def test_intersection_components_worked_examples():
    rs = rs_of("A1")
    e, s = rs.identity, rs.simple_reflection(0)
    dense = OrbitLabel((0,), e, e, e)
    assert intersection_components(dense, (0,)) == [dense]
    assert intersection_components(dense, ()) == [OrbitLabel((), e, e, e)]
    got = intersection_components(OrbitLabel((0,), e, e, s), ())
    assert set(got) == {OrbitLabel((), s, e, e), OrbitLabel((), e, s, e)}


def test_intersection_components_properness_and_membership():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for O in enumerate_orbits(rs):
            for I in all_subsets(rs.rank):
                if not stratum_leq(I, O.I):
                    assert intersection_components(O, I) == []
                    continue
                comps = intersection_components(O, I)
                assert comps, (name, label_str(O), I)
                assert len(set(comps)) == len(comps)
                for L in comps:
                    assert L.I == I
                    assert codim(L) == codim(O)
                    assert closure_leq(L, O)


def test_intersection_components_same_stratum_identity():
    rs = rs_of("B2")
    for O in enumerate_orbits(rs):
        assert intersection_components(O, O.I) == [O]


# ---------------------------------------------------------------- poset object


def test_closure_poset_axioms_rank2():
    for name in ("A1", "A1xA1", "A2", "B2"):
        rs = rs_of(name)
        p = closure_poset(rs)
        n = len(p.labels)
        leq = p.leq
        assert leq.dtype == np.bool_
        assert all(leq[i, i] for i in range(n))
        assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()
        closed = (leq.astype(np.float32) @ leq.astype(np.float32)) > 0.5
        assert not (closed & ~leq).any()


def test_closure_poset_matches_pairwise_closure_leq():
    rs = rs_of("A2")
    p = closure_poset(rs)
    labels, leq = p.labels, p.leq
    for i in range(0, len(labels), 7):
        for j in range(0, len(labels), 5):
            assert bool(leq[i, j]) == closure_leq(labels[i], labels[j])


@pytest.mark.parametrize("name", ["B3", "C3", "A1xA2", "A1xB2"])
def test_closure_poset_matches_closure_leq_on_every_stratum_pair(name):
    # groups where |W^I| != |W_I|; about 2,000 seeded pairs, drawn per stratum
    # pair I1 c I2 half from the whole block and half from its relations
    p = closure_poset(rs_of(name))
    labels, leq = p.labels, p.leq
    rng = random.Random(name)
    by_stratum = {}
    for i, L in enumerate(labels):
        by_stratum.setdefault(L.I, []).append(i)
    blocks = [
        (np.array(by_stratum[I1]), np.array(by_stratum[I2]))
        for I1 in by_stratum
        for I2 in by_stratum
        if set(I1) <= set(I2)
    ]
    per = 1000 // len(blocks)
    for rows, cols in blocks:
        hits = np.argwhere(leq[np.ix_(rows, cols)])
        drawn = [(rng.choice(rows), rng.choice(cols)) for _ in range(per)]
        drawn += [(rows[a], cols[b]) for a, b in rng.sample(list(hits), min(per, len(hits)))]
        for i, j in drawn:
            assert bool(leq[i, j]) == closure_leq(labels[i], labels[j]), (
                label_str(labels[i]),
                label_str(labels[j]),
            )


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_label_layout_parabolic_is_the_bruhat_interval(name):
    # W_I by the weak-order length test is the Bruhat interval below w0(I)
    rs = rs_of(name)
    tab = rs.tables()
    for I, st in label_layout(tab).items():
        w0 = tab.idx(longest_element(rs, I))
        assert np.array_equal(st.par, np.flatnonzero(tab.le[:, w0]))


@pytest.mark.parametrize("name", ["A1xA1", "B2", "G2", "A1xA2"])
def test_label_layout_is_the_label_order(name):
    rs = rs_of(name)
    tab = rs.tables()
    labels = enumerate_orbits(rs)
    W = tab.elements
    layout = label_layout(tab)
    assert list(layout) == strata(rs)
    for I, st in layout.items():
        m, p = len(st.reps), len(st.par)
        for i, L in enumerate(labels[st.offset:st.offset + st.size]):
            s, t, r = i // (m * p), i // p % m, i % p
            assert L == OrbitLabel(I, W[st.reps[s]], W[st.reps[t]], W[st.par[r]])
        for w, c in zip(W, st.coset):
            assert coset_decompose(w, I) == (W[st.reps[c // p]], W[st.par[c % p]])


def test_closure_poset_works_in_row_chunks():
    # beside the n ceil(n/8) bytes of the packed rows, the criterion needs
    # under 4 MB on B3: no n x n array
    tracemalloc.start()
    try:
        p = closure_poset(rs_of("B3"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - p.rows.nbytes < 4 * 2 ** 20


def test_hasse_is_transitive_reduction():
    # brute force: i < j is a cover iff no k has i < k < j
    for name in ("A1", "A1xA1", "A2", "B2", "G2"):
        p = closure_poset(rs_of(name))
        n = len(p.labels)
        strict = p.leq & ~np.eye(n, dtype=bool)
        covers = set()
        for i in range(n):
            two_step = strict[strict[i]].any(axis=0)
            covers.update((i, int(j)) for j in np.flatnonzero(strict[i] & ~two_step))
        assert p.hasse == tuple(sorted(covers)), name


def test_hasse_rejects_ungraded_order():
    p = closure_poset(rs_of("A1"))
    n = len(p.labels)
    dims = [split_dimension(L) for L in p.labels]
    k = next(i for i in range(n) if min(dims) < dims[i] < max(dims))
    leq = p.leq.copy()
    leq[k, :] = leq[:, k] = False
    leq[k, k] = True
    with pytest.raises(NotGradedError) as err:
        ClosurePoset(p.system, np.packbits(leq, axis=1)).hasse
    assert p.labels[k] in err.value.pair
    assert label_str(p.labels[k]) in str(err.value)


def test_hasse_rejects_missing_transitive_relation():
    p = closure_poset(rs_of("A2"))
    i, j = next((i, j) for i, j in p.hasse if any(e[0] == j for e in p.hasse))
    k = next(e[1] for e in p.hasse if e[0] == j)
    leq = p.leq.copy()
    leq[i, k] = False
    with pytest.raises(NotGradedError) as err:
        ClosurePoset(p.system, np.packbits(leq, axis=1)).hasse
    assert err.value.pair == (p.labels[i], p.labels[k])
    assert "generate" in str(err.value)


def hasse_reference(p):
    """ClosurePoset.hasse by the whole-matrix check: the covers of all level
    pairs, then every label's up-set rebuilt one row at a time into one packed
    n x n/8 array and compared with all of leq at once."""
    n, leq = len(p.labels), p.leq
    dims = np.array([split_dimension(L) for L in p.labels])
    levels = {d: np.flatnonzero(dims == d) for d in np.unique(dims)}
    edges = [np.empty((0, 2), dtype=np.int64)]
    for d, lower in levels.items():
        if d + 1 in levels:
            upper = levels[d + 1]
            below, above = np.nonzero(leq[np.ix_(lower, upper)])
            edges.append(np.stack([lower[below], upper[above]], axis=1))
    edges = np.concatenate(edges)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    def not_graded(i, j, what):
        pair = (p.labels[i], p.labels[j])
        return NotGradedError(
            "closure order is not graded by split_dimension: "
            + what % (label_str(pair[0]), label_str(pair[1])),
            pair,
        )

    starts = np.searchsorted(edges[:, 0], np.arange(n + 1))
    want = np.packbits(leq, axis=1)
    got = np.zeros_like(want)
    for i in np.argsort(-dims, kind="stable"):
        js = edges[starts[i]:starts[i + 1], 1]
        if len(js):
            got[i] = np.bitwise_or.reduce(got[js], axis=0)
        got[i, i >> 3] |= 0x80 >> (i & 7)
    if not np.array_equal(got, want):
        i = int(np.flatnonzero((got != want).any(axis=1))[0])
        j = int(np.flatnonzero(np.unpackbits(got[i] ^ want[i], count=n))[0])
        if leq[i, j]:
            what = "%s <= %s holds but the dimension-one covers do not generate it"
        else:
            what = "the dimension-one covers generate %s <= %s but it does not hold"
        raise not_graded(i, j, what)

    for ends, kind in ((edges[:, 1], "minimal"), (edges[:, 0], "maximal")):
        extreme = np.ones(n, dtype=bool)
        extreme[ends] = False
        extreme = np.flatnonzero(extreme)
        odd = extreme[dims[extreme] != dims[extreme[0]]]
        if len(odd):
            what = "%s and %s are both " + kind + " but differ in dimension"
            raise not_graded(extreme[0], odd[0], what)
    return tuple((int(i), int(j)) for i, j in edges)


@functools.lru_cache(maxsize=None)
def poset_of(name):
    return closure_poset(rs_of(name))


def outcome_or_error(f, p):
    """f(p), or the pair and message of the NotGradedError it raises."""
    try:
        return f(p)
    except NotGradedError as e:
        return e.pair, str(e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_hasse_matches_the_whole_matrix_reference(data):
    p = poset_of(data.draw(st.sampled_from(["A1", "A1xA1", "A2", "B2", "G2"])))
    n = len(p.labels)
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    leq = p.leq.copy()
    for i, j in data.draw(st.lists(entry, min_size=1, max_size=5)):
        leq[i, j] = not leq[i, j]
    faulty = ClosurePoset(p.system, np.packbits(leq, axis=1))
    want = outcome_or_error(hasse_reference, faulty)
    got = outcome_or_error(lambda q: q.hasse, faulty)
    assert got == want


def test_hasse_and_json_peak_memory():
    # the packed rows of two adjacent levels, never all n of them; the JSON
    # with no per-token chunks of an indenting encoder
    p = closure_poset(rs_of("B3"))
    peaks = []
    for step in (lambda: p.hasse, p.to_json):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 10 * 2 ** 20
    assert peaks[1] < 8 * 2 ** 20


def test_hasse_is_computed_on_first_use():
    p = closure_poset(rs_of("A1"))
    assert "hasse" not in vars(p)
    assert p.hasse is p.hasse


def test_poset_is_graded_by_split_dimension():
    for name, edges in (("A1", 8), ("A1xA1", 96), ("A2", 258), ("B2", 494), ("G2", 1188)):
        rs = rs_of(name)
        p = closure_poset(rs)
        assert len(p.hasse) == edges
        for i, j in p.hasse:
            assert split_dimension(p.labels[j]) == split_dimension(p.labels[i]) + 1


def test_a1_poset_extremes():
    rs = rs_of("A1")
    p = closure_poset(rs)
    n, leq = len(p.labels), p.leq
    tops = [i for i in range(n) if all(leq[j, i] for j in range(n))]
    bots = [i for i in range(n) if all(leq[i, j] for j in range(n))]
    assert [label_str(p.labels[i]) for i in tops] == ["I=[1];sigma=e;tau=e;rho=e"]
    assert [label_str(p.labels[i]) for i in bots] == ["I=[];sigma=1;tau=1;rho=e"]


def test_poset_serialization_formats():
    rs = rs_of("A1")
    p = closure_poset(rs)
    obj = json.loads(p.to_json())
    assert set(obj) == {"labels", "hasse"}
    assert len(obj["labels"]) == 6
    assert sorted(map(tuple, obj["hasse"])) == sorted(map(tuple, p.hasse))
    dot = p.to_dot()
    assert "rankdir=BT" in dot and dot.count(" -> ") == len(p.hasse)
    csv_text = strata_csv(p.labels)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "stratum,count,min_dim,max_dim"
    assert lines[1:] == ["[],4,0,2", "[1],2,2,3"]


@pytest.mark.parametrize("name", ["A1", "A1xA1", "A2", "B2", "G2", "A3", ""])
def test_to_json_is_the_indenting_encoders_bytes(name):
    p = closure_poset(rs_of(name) if name else build_root_system([]))
    obj = {"labels": [label_str(L) for L in p.labels], "hasse": [list(e) for e in p.hasse]}
    assert p.to_json() == json.dumps(obj, indent=2, sort_keys=True)


def test_rank_zero_poset():
    rs = build_root_system([])
    p = closure_poset(rs)
    assert len(p.labels) == 1 and len(p.hasse) == 0

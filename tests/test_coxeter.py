"""Root systems, Weyl elements, Bruhat order, cosets, weights."""

import pytest

from orbits.coxeter import (
    ASCENT_IN_WJ,
    CapExceeded,
    DESCENT_IN_WJ,
    EXCHANGE,
    WeightFunction,
    WeylElement,
    bruhat_leq,
    bruhat_leq_subword,
    build_root_system,
    cartan_matrix,
    coset_decompose,
    enumerate_group,
    greedy_word,
    in_parabolic,
    longest_element,
    min_coset_reps,
    parabolic_trichotomy,
    parse_word,
    system_from_spec,
    weighted_length,
    word_str,
)

# type name -> (rank, number of positive non-divisible roots, |W|)
TYPE_DATA = {
    "A1": (1, 1, 2),
    "A2": (2, 3, 6),
    "B2": (2, 4, 8),
    "G2": (2, 6, 12),
    "A3": (3, 6, 24),
    "B3": (3, 9, 48),
    "C3": (3, 9, 48),
    "A1xA1": (2, 2, 4),
    "D4": (4, 12, 192),
    "F4": (4, 24, 1152),
}


def rs_of(name):
    return build_root_system(cartan_matrix(name))


def all_subsets(rank):
    out = []
    for mask in range(1 << rank):
        out.append(tuple(i for i in range(rank) if mask >> i & 1))
    return out


# ---------------------------------------------------------------- root systems


def test_root_counts_and_group_orders():
    for name, (rank, npos, order) in TYPE_DATA.items():
        rs = rs_of(name)
        assert rs.rank == rank
        assert len(rs.nondivisible_positive) == npos
        assert len(enumerate_group(rs)) == order


def test_large_type_root_counts():
    for name, npos in (("E6", 36), ("E7", 63), ("E8", 120)):
        rs = rs_of(name)
        assert len(rs.nondivisible_positive) == npos


def test_rank_zero():
    rs = build_root_system([])
    assert rs.rank == 0
    assert rs.nondivisible_positive == ()
    assert enumerate_group(rs) == (rs.identity,)
    assert longest_element(rs) == rs.identity


def test_simple_roots_are_first_by_height():
    for name in TYPE_DATA:
        rs = rs_of(name)
        simples = {tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)}
        assert set(rs.nondivisible_positive[: rs.rank]) == simples


def test_nonreduced_bc_types():
    bc1 = build_root_system([[2]], nonreduced=[0])
    assert bc1.nondivisible_positive == ((1,),)
    assert bc1.positive_roots == ((1,), (2,))
    bc2 = build_root_system(cartan_matrix("B2"), nonreduced=[0])
    assert len(bc2.nondivisible_positive) == 4
    assert len(bc2.positive_roots) == 6
    # the doubled roots are exactly twice the short-root orbit members
    doubled = set(bc2.positive_roots) - set(bc2.nondivisible_positive)
    assert all(
        tuple(c // 2 for c in beta) in set(bc2.nondivisible_positive) for beta in doubled
    )


def test_root_orbits_partition():
    rs = rs_of("B2")
    orbits = rs.root_orbits()
    assert sorted(i for orb in orbits for i in orb) == [0, 1, 2, 3]
    assert sorted(len(o) for o in orbits) == [2, 2]
    # G2 likewise: two orbits of 3 (long and short)
    assert sorted(len(o) for o in rs_of("G2").root_orbits()) == [3, 3]
    # A2: a single orbit
    assert [len(o) for o in rs_of("A2").root_orbits()] == [3]


NAMED_UP_TO_RANK_8 = (
    ["A%d" % r for r in range(1, 9)]
    + ["B%d" % r for r in range(2, 9)]
    + ["C%d" % r for r in range(3, 9)]
    + ["D%d" % r for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_simple_perm_reflects_each_root():
    for name in NAMED_UP_TO_RANK_8:
        for marks in ((), (0,)):
            rs = build_root_system(cartan_matrix(name), marks)
            roots = rs.nondivisible_positive
            for i in range(rs.rank):
                for r, v in enumerate(roots):
                    image = list(v)
                    image[i] -= sum(v[j] * rs.cartan[i][j] for j in range(rs.rank))
                    p = rs._simple_perm[i][r]
                    got = roots[p - 1] if p > 0 else tuple(-c for c in roots[-p - 1])
                    assert got == tuple(image), (name, marks, i, v)


def test_bad_cartan_matrices_rejected():
    with pytest.raises(ValueError):
        build_root_system([[2, -1]])  # not square
    with pytest.raises(ValueError):
        build_root_system([[1]])  # bad diagonal
    with pytest.raises(ValueError):
        build_root_system([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        build_root_system([[2, 0], [-1, 2]])  # asymmetric zero pattern
    with pytest.raises(ValueError, match="finite type"):
        build_root_system([[2, -2], [-2, 2]])  # affine
    with pytest.raises(ValueError, match="finite type"):
        build_root_system([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])  # affine A2~
    with pytest.raises(ValueError):
        build_root_system(cartan_matrix("A2"), nonreduced=[5])


def test_unknown_type_name():
    with pytest.raises(ValueError):
        cartan_matrix("Z9")
    with pytest.raises(ValueError):
        cartan_matrix("D2")
    with pytest.raises(ValueError):
        cartan_matrix("F5")
    with pytest.raises(ValueError):
        cartan_matrix("A0")
    # degenerate low ranks collapse as usual
    assert cartan_matrix("B1") == cartan_matrix("A1") == ((2,),)


def test_named_cartans_spot_checks():
    assert cartan_matrix("A2") == ((2, -1), (-1, 2))
    assert cartan_matrix("B2") == ((2, -2), (-1, 2))
    assert cartan_matrix("G2") == ((2, -1), (-3, 2))
    assert cartan_matrix("A1xA1") == ((2, 0), (0, 2))


# ---------------------------------------------------------------- group algebra


def test_simple_reflections_are_involutions():
    for name in ("A2", "B2", "G2", "B3"):
        rs = rs_of(name)
        for i in range(rs.rank):
            s = rs.simple_reflection(i)
            assert s * s == rs.identity
            assert s.length == 1
            assert s.word == (i,)


def test_braid_relations():
    for name, orders in (("A2", {(0, 1): 3}), ("B2", {(0, 1): 4}), ("G2", {(0, 1): 6})):
        rs = rs_of(name)
        for (i, j), m in orders.items():
            si, sj = rs.simple_reflection(i), rs.simple_reflection(j)
            w = rs.identity
            for _ in range(m):
                w = w * si * sj
            assert w == rs.identity


def all_reduced(w):
    """Every reduced word of w, by brute force over the left descents."""
    if w.length == 0:
        return {()}
    out = set()
    for i in range(w.system.rank):
        s = w.system.simple_reflection(i)
        if (s * w).length < w.length:
            out |= {(i,) + t for t in all_reduced(s * w)}
    return out


def test_canonical_word_is_reduced_and_lex_least():
    for name in ("A2", "B2"):
        rs = rs_of(name)
        for w in enumerate_group(rs):
            words = all_reduced(w)
            assert len(w.word) == w.length
            assert w.word == min(words)


def test_greedy_word_both_letter_orders():
    for name in ("G2", "A3"):
        rs = rs_of(name)
        up, down = range(rs.rank), range(rs.rank - 1, -1, -1)
        for w in enumerate_group(rs):
            for letters in (up, down):
                word = greedy_word(w, letters)
                assert len(word) == w.length
                product = rs.identity
                for i in word:
                    product = product * rs.simple_reflection(i)
                assert product == w
            assert greedy_word(w, up) == w.word
            assert greedy_word(w, down) == max(all_reduced(w))


def test_word_round_trip():
    for name in ("A2", "B2", "G2", "A1xA1"):
        rs = rs_of(name)
        for w in enumerate_group(rs):
            assert parse_word(rs, word_str(w)) == w


def test_parse_word_errors():
    rs = rs_of("A2")
    assert parse_word(rs, "e") == rs.identity
    assert parse_word(rs, "2.1.2") == parse_word(rs, "1.2.1")  # non-canonical ok
    for bad in ("0", "3", "1..2", "x", "1.2.x"):
        with pytest.raises(ValueError):
            parse_word(rs, bad)


def test_multiplication_matches_word_concatenation():
    rs = rs_of("B2")
    for u in enumerate_group(rs):
        for v in enumerate_group(rs):
            if u.length and v.length:
                assert u * v == parse_word(rs, word_str(u) + "." + word_str(v))
    w = parse_word(rs, "1.2")
    assert rs.identity * w == w and w * rs.identity == w


def test_mixed_system_multiplication_rejected():
    a = rs_of("A2")
    b = rs_of("B2")
    with pytest.raises(ValueError):
        a.identity * b.identity


def test_inverse_and_length():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        for w in enumerate_group(rs):
            assert w * w.inverse() == rs.identity
            assert w.inverse().length == w.length


def test_longest_element():
    for name, (_, npos, _) in TYPE_DATA.items():
        rs = rs_of(name)
        w0 = longest_element(rs)
        assert w0.length == npos
        assert w0 * w0 == rs.identity
        assert all(not w0.sends_positive(i) for i in range(rs.rank))
    assert word_str(longest_element(rs_of("A2"))) == "1.2.1"
    assert word_str(longest_element(rs_of("A1"))) == "1"


def test_longest_element_of_parabolic():
    rs = rs_of("A3")
    for J in all_subsets(rs.rank):
        w0J = longest_element(rs, J)
        assert in_parabolic(w0J, J)
        assert all(not w0J.sends_positive(j) for j in J)
        par = [w for w in enumerate_group(rs) if in_parabolic(w, J)]
        assert w0J.length == max(w.length for w in par)


# ---------------------------------------------------------------- Bruhat order


def test_bruhat_matches_subword_oracle():
    for name in ("A2", "B2", "A1xA1"):
        rs = rs_of(name)
        for u in enumerate_group(rs):
            for w in enumerate_group(rs):
                assert bruhat_leq(u, w) == bruhat_leq_subword(u, w), (name, u, w)


def test_bruhat_basics():
    rs = rs_of("B2")
    e, w0 = rs.identity, longest_element(rs)
    for w in enumerate_group(rs):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
        assert bruhat_leq(w, w)
    for u in enumerate_group(rs):
        for w in enumerate_group(rs):
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w
            if bruhat_leq(u, w) and u != w:
                assert u.length < w.length


def test_tables_agree_with_scalar_ops():
    for name in ("A1xA1", "A2", "B2", "G2", "A3", "B3"):
        rs = rs_of(name)
        t = rs.tables()
        els = t.elements
        n = len(els)
        for i in range(n):
            for j in range(n):
                # le is built by bruhat_leq's lifting rule: check it against
                # the independent subword oracle instead
                assert bool(t.le[i, j]) == bruhat_leq_subword(els[i], els[j])
                assert els[t.mult[i, j]] == els[i] * els[j]
            assert els[t.inverse[i]] == els[i].inverse()


# ---------------------------------------------------------------- cosets


def test_coset_decomposition_laws():
    for name in ("A2", "B2", "G2", "A3"):
        rs = rs_of(name)
        W = enumerate_group(rs)
        for J in all_subsets(rs.rank):
            reps = min_coset_reps(rs, J)
            par = [w for w in W if in_parabolic(w, J)]
            assert len(reps) * len(par) == len(W)
            seen = set()
            for w in W:
                u, p = coset_decompose(w, J)
                assert u * p == w
                assert u.length + p.length == w.length
                assert all(u.sends_positive(j) for j in J)
                assert in_parabolic(p, J)
                seen.add((u.perm, p.perm))
            assert len(seen) == len(W)  # decomposition is unique


def test_min_coset_reps_are_shortlex_sorted():
    rs = rs_of("B2")
    for J in all_subsets(rs.rank):
        reps = min_coset_reps(rs, J)
        keys = [w.shortlex_key() for w in reps]
        assert keys == sorted(keys)


def test_in_parabolic():
    rs = rs_of("A2")
    s1, s2 = rs.simple_reflection(0), rs.simple_reflection(1)
    assert in_parabolic(s1, (0,)) and not in_parabolic(s1, (1,))
    assert not in_parabolic(s1 * s2, (0,)) and in_parabolic(s1 * s2, (0, 1))
    assert in_parabolic(rs.identity, ())


def test_parabolic_trichotomy_partition():
    for name in ("A2", "B2", "G2"):
        rs = rs_of(name)
        for J in all_subsets(rs.rank):
            for sigma in min_coset_reps(rs, J):
                for alpha in range(rs.rank):
                    kind, beta = parabolic_trichotomy(sigma, J, alpha)
                    s = rs.simple_reflection(alpha)
                    t = s * sigma
                    if kind == DESCENT_IN_WJ:
                        assert beta is None
                        assert t.length < sigma.length
                        assert all(t.sends_positive(j) for j in J)
                    elif kind == ASCENT_IN_WJ:
                        assert beta is None
                        assert t.length > sigma.length
                        assert all(t.sends_positive(j) for j in J)
                    else:
                        assert kind == EXCHANGE
                        assert beta in J
                        assert t == sigma * rs.simple_reflection(beta)
                        assert t.length > sigma.length
                        assert not all(t.sends_positive(j) for j in J)


def test_trichotomy_rejects_non_minimal_sigma():
    rs = rs_of("A2")
    with pytest.raises(ValueError):
        parabolic_trichotomy(rs.simple_reflection(0), (0,), 1)


# ---------------------------------------------------------------- weights


def test_unit_weights_give_length():
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = rs_of(name)
        c = WeightFunction.unit(rs)
        assert c.is_unit
        for w in enumerate_group(rs):
            assert weighted_length(w, c) == w.length


def test_weighted_length_b2_non_unit():
    rs = rs_of("B2")
    c = WeightFunction.from_orbit_weights(rs, {0: 2, 1: 3})
    assert c.values == (2, 3, 3, 2)
    got = {word_str(w): weighted_length(w, c) for w in enumerate_group(rs)}
    assert got == {
        "e": 0,
        "1": 3,
        "2": 2,
        "1.2": 5,
        "2.1": 5,
        "1.2.1": 8,
        "2.1.2": 7,
        "1.2.1.2": 10,
    }


def test_weighted_length_additivity():
    for name in ("A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"):
        rs = rs_of(name)
        weights = [WeightFunction.unit(rs)]
        if name == "B2":
            weights.append(WeightFunction.from_orbit_weights(rs, {0: 2, 1: 3}))
        W = enumerate_group(rs)
        for c in weights:
            for u in W:
                for v in W:
                    uv = u * v
                    if uv.length == u.length + v.length:
                        assert weighted_length(uv, c) == weighted_length(u, c) + weighted_length(v, c)


def test_weight_validation():
    rs = rs_of("B2")
    with pytest.raises(ValueError):
        WeightFunction(rs, (1, 1, 1))  # wrong arity
    with pytest.raises(ValueError):
        WeightFunction(rs, (0, 1, 1, 1))  # not positive
    with pytest.raises(ValueError):
        WeightFunction(rs, (1, 2, 3, 4))  # not W-invariant
    with pytest.raises(ValueError):
        WeightFunction.from_orbit_weights(rs, {9: 2})
    # constant on orbits passes
    WeightFunction(rs, (5, 7, 7, 5))


# ---------------------------------------------------------------- group specs


def test_system_from_spec_named_and_explicit():
    rs1, c1 = system_from_spec({"type": "B2"})
    rs2, c2 = system_from_spec({"cartan": [[2, -2], [-1, 2]]})
    assert rs1.cartan == rs2.cartan
    assert c1.is_unit and c2.is_unit


def test_system_from_spec_weights_and_marks():
    rs, c = system_from_spec(
        {"cartan": [[2, -2], [-1, 2]], "weights": {"1": 4}}
    )
    # 1-based key "1" names the first non-divisible root's orbit
    assert c.values[0] == 4
    assert not c.is_unit
    rs2, _ = system_from_spec({"cartan": [[2]], "nonreduced": [1]})
    assert rs2.positive_roots == ((1,), (2,))


def test_system_from_spec_errors():
    with pytest.raises(ValueError):
        system_from_spec({})
    with pytest.raises(ValueError):
        system_from_spec({"type": "A2", "cartan": [[2]]})
    with pytest.raises(ValueError):
        system_from_spec([1, 2])


# ---------------------------------------------------------------- caps


def test_cap_exceeded():
    rs = rs_of("A2")
    rs2 = build_root_system(cartan_matrix("A2"))  # fresh, no cached elements
    with pytest.raises(CapExceeded):
        enumerate_group(rs2, cap=3)
    assert len(enumerate_group(rs, cap=6)) == 6


def test_tables_respect_cap_after_caching():
    rs = build_root_system(cartan_matrix("B2"))
    tab = rs.tables(cap=100)
    assert len(tab.elements) == 8
    assert rs.tables(cap=8) is tab
    with pytest.raises(CapExceeded, match="more than 7 elements"):
        rs.tables(cap=7)

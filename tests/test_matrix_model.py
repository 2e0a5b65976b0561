"""Finite-field model: Borel pairs, orbit partitions, label matching.

The expected orbit counts, size multisets, collision structure, and group-cell
sizes below are frozen outputs of the partition itself (run once, checked in),
cross-checked against the label polynomials wherever the matching is a
bijection.  The breadth-first saturation kept here, on tuple-of-tuples
matrices with its own linear algebra, is the reference the integer-coded
partition must equal exactly.
"""

import numpy as np
import pytest

from orbits.coxeter import build_root_system, cartan_matrix
from orbits.matrix_model import (
    SUPPORTED_Q,
    base_point_matrix,
    enumerate_points,
    matching_report,
    orbit_partition,
    representative_point,
    verify_group_cells,
    orbit_dump,
    _borel_generators,
    _coord_permutation,
    _det,
)
from orbits.orbit_model import enumerate_orbits, label_str, point_count_poly, poly_eval


# ---------------------------------------------------------------- reference
# Tuple-of-tuples linear algebra over F_q, independent of the engine's codes.


def _normalize(rows, q):
    """Scale so the first nonzero entry (row-major) is 1; None for the zero matrix."""
    flat = [c % q for row in rows for c in row]
    lead = next((c for c in flat if c), None)
    if lead is None:
        return None
    if lead != 1:
        inv = pow(lead, q - 2, q)
        flat = [(c * inv) % q for c in flat]
    n = len(rows)
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def _matmul(a, b, q):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _inv_mat(m, q):
    """Inverse over F_q by Gauss-Jordan elimination; None if singular."""
    n = len(m)
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % q), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col] % q, q - 2, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] % q:
                f = a[r][col] % q
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _matrix(code, n, q):
    """The tuple matrix of a big-endian base-q code."""
    code = int(code)
    digits = [code // q ** (n * n - 1 - i) % q for i in range(n * n)]
    return tuple(tuple(digits[i * n : (i + 1) * n]) for i in range(n))


def _code(m, q):
    """The big-endian base-q code of a tuple matrix."""
    code = 0
    for row in m:
        for c in row:
            code = code * q + c
    return code


def _generators(n, q, upper):
    return [tuple(map(tuple, g.tolist())) for g in _borel_generators(n, q, upper)]


# ---------------------------------------------------------------- points


def test_normalization():
    assert _normalize(((0, 2), (1, 2)), 3) == ((0, 1), (2, 1))
    assert _normalize(((0, 0), (0, 3)), 3) is None  # zero matrix mod 3
    m = ((0, 2), (1, 2))
    assert _normalize(_normalize(m, 3), 3) == _normalize(m, 3)  # idempotent
    # scalar multiples collapse
    assert _normalize(((2, 0), (0, 2)), 5) == _normalize(((1, 0), (0, 1)), 5)


def test_enumerate_points_counts():
    for n, q, count in ((2, 2, 15), (2, 3, 40), (2, 5, 156), (3, 2, 511)):
        codes = enumerate_points(n, q)
        assert codes.dtype == np.int32
        assert len(codes) == count == (q ** (n * n) - 1) // (q - 1)
        pts = [_matrix(c, n, q) for c in codes]
        assert len(set(pts)) == count
        assert all(_normalize(p, q) == p for p in pts)
        assert [_code(p, q) for p in pts] == codes.tolist()
        # by the leading 1, then the later entries, least significant first
        flats = [sum(p, ()) for p in pts]
        keys = [(f.index(1), f[f.index(1) + 1 :][::-1]) for f in flats]
        assert keys == sorted(keys)


def test_supported_parameters():
    with pytest.raises(ValueError):
        enumerate_points(4, 2)
    with pytest.raises(ValueError):
        enumerate_points(2, 7)
    with pytest.raises(ValueError):
        orbit_partition(3, 4)


def test_field_linear_algebra():
    m = ((1, 2), (3, 4))
    inv = _inv_mat(m, 5)
    assert _matmul(m, inv, 5) == ((1, 0), (0, 1))
    assert _inv_mat(((1, 2), (2, 4)), 5) is None  # singular
    assert _det(((1, 2), (2, 4)), 5) == 0
    assert _det(((1, 2), (3, 4)), 5) == 3  # -2 mod 5
    for n, q in ((2, 3), (3, 2)):
        pts = [_matrix(c, n, q) for c in enumerate_points(n, q)]
        dets = _det(pts, q)  # one stack
        assert dets.shape == (len(pts),)
        assert [bool(d) for d in dets] == [_inv_mat(p, q) is not None for p in pts]


# ---------------------------------------------------------------- Borel pairs


def _borel(n, q, upper):
    """The upper (or lower) Borel subgroup of PGL_n(F_q): the closure of its
    generators under multiplication, as sorted normalized matrices."""
    gens = [_normalize(g, q) for g in _generators(n, q, upper)]
    seen = {_normalize(_identity(n), q)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _normalize(_matmul(a, g, q), q)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


def test_borel_pair_sizes():
    for n, q in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
        expected = q ** (n * (n - 1) // 2) * (q - 1) ** (n - 1)
        assert len(_borel(n, q, True)) == expected
        assert len(_borel(n, q, False)) == expected


def test_borel_pair_closed_under_multiplication():
    upper, lower = _borel(2, 3, True), _borel(2, 3, False)
    upper_set = set(upper)
    for a in upper:
        for b in upper:
            assert _normalize(_matmul(a, b, 3), 3) in upper_set
    # triangularity
    assert all(m[1][0] == 0 for m in upper)
    assert all(m[0][1] == 0 for m in lower)


# ---------------------------------------------------------------- base points


def test_base_point_matrices():
    assert base_point_matrix(2, 2, (0,)) == ((1, 0), (0, 1))
    assert base_point_matrix(2, 2, ()) == ((0, 0), (0, 1))
    assert base_point_matrix(3, 2, (0, 1)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert base_point_matrix(3, 2, (1,)) == ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    # the rank-1 degenerate coincidence of the n=3 model: I = {} and I = {0}
    # give the same trailing idempotent
    assert base_point_matrix(3, 2, ()) == base_point_matrix(3, 2, (0,))


# ---------------------------------------------------------------- partitions


def _bfs_partition(n, q):
    """Reference partition: breadth-first saturation of each unvisited point,
    in enumeration order, under the same generators and the actions
    (p, b) . [m] = [p m b^-1]."""
    left = _generators(n, q, True)
    right = [_inv_mat(g, q) for g in _generators(n, q, False)]
    orbits, point_to_orbit = [], {}
    for p in (_matrix(c, n, q) for c in enumerate_points(n, q)):
        if p in point_to_orbit:
            continue
        members, frontier = {p}, [p]
        while frontier:
            images = {_normalize(_matmul(g, m, q), q) for m in frontier for g in left}
            images |= {_normalize(_matmul(m, h, q), q) for m in frontier for h in right}
            frontier = images - members
            members |= frontier
        for m in members:
            point_to_orbit[m] = len(orbits)
        orbits.append(tuple(sorted(members)))
    return orbits, point_to_orbit


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_orbit_partition_equals_reference_bfs(n, q):
    orbits, orbit_of = orbit_partition(n, q)
    assert all(o.dtype == np.int32 for o in orbits)
    assert len(orbit_of) == q ** (n * n)
    decoded = [tuple(_matrix(c, n, q) for c in o) for o in orbits]
    # codes off the points map to -1, so this also checks which codes are points
    point_to_orbit = {
        _matrix(c, n, q): oid for c, oid in enumerate(orbit_of.tolist()) if oid >= 0
    }
    assert (decoded, point_to_orbit) == _bfs_partition(n, q)


def test_orbit_partition_2_2():
    orbits, orbit_of = orbit_partition(2, 2)
    assert sorted(len(o) for o in orbits) == [1, 2, 2, 2, 4, 4]
    assert sum(len(o) for o in orbits) == 15
    assert np.count_nonzero(orbit_of >= 0) == 15
    assert orbit_of[0] == -1  # the zero matrix


def test_orbit_partition_2_3():
    orbits, _ = orbit_partition(2, 3)
    assert sorted(len(o) for o in orbits) == [1, 3, 3, 6, 9, 18]
    assert sum(len(o) for o in orbits) == 40


def test_orbit_partition_3_2():
    orbits, _ = orbit_partition(3, 2)
    assert len(orbits) == 33
    assert sorted(len(o) for o in orbits) == (
        [1] + [2] * 3 + [4] * 6 + [8] * 8 + [16] * 8 + [32] * 5 + [64] * 2
    )
    assert sum(len(o) for o in orbits) == 511


def test_orbit_partition_3_3():
    orbits, orbit_of = orbit_partition(3, 3)
    assert np.count_nonzero(orbit_of >= 0) == 9841
    assert sorted(len(o) for o in orbits) == [
        1, 3, 3, 6, 9, 9, 9, 18, 18, 18, 27, 27, 54, 54, 54, 54, 54, 81, 108,
        162, 162, 162, 162, 162, 324, 324, 486, 486, 486, 972, 972, 1458, 2916,
    ]


def test_orbit_partition_3_5():
    partition = orbit_partition(3, 5)
    orbits, orbit_of = partition
    assert np.count_nonzero(orbit_of >= 0) == 488281
    assert len(orbits) == 33
    report = verify_group_cells(3, 5, partition)
    assert report.ok
    assert report.group_order == 372000  # |PGL_3(F_5)|


def test_orbit_partition_deterministic():
    (orbits1, orbit_of1), (orbits2, orbit_of2) = orbit_partition(2, 3), orbit_partition(2, 3)
    assert [o.tolist() for o in orbits1] == [o.tolist() for o in orbits2]
    assert np.array_equal(orbit_of1, orbit_of2)


# ---------------------------------------------------------------- matching


def test_label_matching_bijective_n2():
    for q in (2, 3):
        partition = orbit_partition(2, q)
        orbits, _ = partition
        report = matching_report(2, q, partition)
        assert report.bijective
        assert report.collisions == []
        mapping = report.mapping
        assert len(mapping) == 6
        assert sorted(mapping.values()) == sorted(range(6))
        for O, oid in mapping.items():
            assert len(orbits[oid]) == poly_eval(point_count_poly(O), q)


def test_label_matching_worked_examples():
    partition = orbit_partition(2, 2)
    orbits, _ = partition
    report = matching_report(2, 2, partition)
    assert report.bijective
    by_name = {label_str(O): oid for O, oid in report.mapping.items()}
    # the dense orbit is the 4-point orbit of the identity
    oid = by_name["I=[1];sigma=e;tau=e;rho=e"]
    assert len(orbits[oid]) == 4
    assert _code(((1, 0), (0, 1)), 2) in orbits[oid]
    # (emptyset, s, s) is a singleton
    oid = by_name["I=[];sigma=1;tau=1;rho=e"]
    assert orbits[oid].tolist() == [_code(((1, 0), (0, 0)), 2)]


def test_orbit_sizes_q3():
    partition = orbit_partition(2, 3)
    orbits, _ = partition
    report = matching_report(2, 3, partition)
    assert report.bijective
    mapping = report.mapping
    sizes = sorted((len(orbits[oid]) for oid in mapping.values()), reverse=True)
    assert sizes == [18, 9, 6, 3, 3, 1]


def test_matching_report_3_2_collisions():
    partition = orbit_partition(3, 2)
    orbits, _ = partition
    report = matching_report(3, 2, partition)
    assert report.label_count == 78
    assert report.orbit_count == 33
    assert not report.bijective
    assert report.unmatched_orbits == []
    # exactly 9 collision orbits, each absorbing 6 labels; they are the
    # rank-1 locus (a product of two projective planes), cell sizes q^{a+b}
    assert len(report.collisions) == 9
    assert any("I=[];sigma=e;tau=e;rho=e" in names for _, names in report.collisions)
    assert all(len(names) == 6 for _, names in report.collisions)
    coll_sizes = sorted(len(orbits[oid]) for oid, _ in report.collisions)
    assert coll_sizes == [1, 2, 2, 4, 4, 4, 8, 8, 16]
    assert sum(coll_sizes) == 49  # (q^2+q+1)^2 at q=2
    # the other 24 orbits are matched injectively with correct point counts
    injective = {
        O: oid
        for O, oid in report.mapping.items()
        if len([0 for _, names in report.collisions if label_str(O) in names]) == 0
    }
    assert len(set(injective.values())) == 24
    for O, oid in injective.items():
        assert len(orbits[oid]) == poly_eval(point_count_poly(O), 2)


@pytest.mark.parametrize("n, q", [(n, q) for n in (2, 3) for q in SUPPORTED_Q])
def test_representative_point_matches_reference_product(n, q):
    rs = build_root_system(cartan_matrix("A%d" % (n - 1)))
    for O in enumerate_orbits(rs):
        a = _coord_permutation(O.sigma * O.rho, n)
        t = _coord_permutation(O.tau, n)
        perm_a = tuple(tuple(int(i == a[j]) for j in range(n)) for i in range(n))
        perm_t = tuple(tuple(int(i == t[j]) for j in range(n)) for i in range(n))
        b = base_point_matrix(n, q, O.I)
        product = _matmul(perm_a, _matmul(b, _inv_mat(perm_t, q), q), q)
        assert representative_point(n, q, O) == _code(_normalize(product, q), q)


def test_representative_independence():
    # scaling the permutation representatives by torus elements must not
    # change the orbit hit
    q = 3
    partition = orbit_partition(2, q)
    _, orbit_of = partition
    rs = build_root_system(cartan_matrix("A1"))
    for O in enumerate_orbits(rs):
        rep = representative_point(2, q, O)
        base = orbit_of[rep]
        assert base >= 0
        for d in ((1, 2), (2, 1), (2, 2)):
            for d2 in ((1, 2), (2, 1)):
                left = ((d[0], 0), (0, d[1]))
                right = ((d2[0], 0), (0, d2[1]))
                moved = _normalize(_matmul(left, _matmul(_matrix(rep, 2, q), right, q), q), q)
                assert orbit_of[_code(moved, q)] == base


# ---------------------------------------------------------------- group cells


def test_group_cells_2_2():
    report = verify_group_cells(2, 2)
    assert report.ok
    assert report.group_order == 6
    assert sorted(size for _, size, _ in report.cells) == [2, 4]


def test_group_cells_2_3():
    report = verify_group_cells(2, 3)
    assert report.ok
    assert report.group_order == 24
    assert {rho: size for rho, size, _ in report.cells} == {"e": 18, "1": 6}


def test_group_cells_3_2():
    report = verify_group_cells(3, 2)
    assert report.ok
    assert report.group_order == 168
    assert {rho: size for rho, size, _ in report.cells} == {
        "e": 64,
        "1": 32,
        "2": 32,
        "1.2": 16,
        "2.1": 16,
        "1.2.1": 8,
    }
    assert all(size == expected for _, size, expected in report.cells)


# ---------------------------------------------------------------- dump


def _dump(n, q):
    partition = orbit_partition(n, q)
    return orbit_dump(partition[0], matching_report(n, q, partition))


def test_orbit_dump_shape():
    dump = _dump(2, 2)
    assert len(dump) == 6
    assert sum(entry["size"] for entry in dump) == 15
    orbits, _ = orbit_partition(2, 2)
    for entry, members in zip(dump, orbits):
        assert set(entry) == {"labels", "size", "representative"}
        assert len(entry["labels"]) == 1  # bijective at (2,2)
        # the orbit's first (smallest) point, as a matrix
        assert entry["representative"] == [list(row) for row in _matrix(members[0], 2, 2)]
    dump32 = _dump(3, 2)
    assert len(dump32) == 33
    assert sorted(len(e["labels"]) for e in dump32) == [1] * 24 + [6] * 9

"""Property-based tests: label parsing and canonicalization, Cartan validation,
group-spec validation.  Runs are derandomized, so every run draws the same
examples."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from orbits.coxeter import (
    build_root_system,
    cartan_matrix,
    enumerate_group,
    in_parabolic,
    system_from_spec,
)
from orbits.orbit_model import (
    LabelParseError,
    canonicalize,
    enumerate_orbits,
    label_str,
    parse_label,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

TYPES = ("A1", "A1xA1", "A2", "B2", "G2", "A3")
SYSTEMS = {name: build_root_system(cartan_matrix(name)) for name in TYPES}
LABELS = {name: enumerate_orbits(rs) for name, rs in SYSTEMS.items()}


# ---------------------------------------------------------------- labels


@SETTINGS
@given(st.data())
def test_label_round_trip_and_canonical_fixed_point(data):
    name = data.draw(st.sampled_from(TYPES))
    rs = SYSTEMS[name]
    O = data.draw(st.sampled_from(LABELS[name]))
    assert parse_label(rs, label_str(O)) == O
    assert canonicalize(rs, O.I, O.sigma * O.rho, O.tau) == O


@SETTINGS
@given(st.data())
def test_canonicalize_is_idempotent_and_stays_in_the_class(data):
    rs = SYSTEMS[data.draw(st.sampled_from(TYPES))]
    W = enumerate_group(rs)
    I = data.draw(st.sets(st.integers(0, rs.rank - 1)))
    x = data.draw(st.sampled_from(W))
    y = data.draw(st.sampled_from(W))
    O = canonicalize(rs, I, x, y)
    assert canonicalize(rs, O.I, O.sigma * O.rho, O.tau) == O
    # (sigma rho, tau) = (x v, y v) for some v in W_I
    v = y.inverse() * O.tau
    assert in_parabolic(v, I)
    assert x * v == O.sigma * O.rho


WORDS = st.one_of(
    st.just("e"),
    st.lists(st.integers(-1, 4), min_size=1, max_size=5).map(
        lambda letters: ".".join(map(str, letters))
    ),
    st.text(max_size=6),
)
LABEL_TEXT = st.one_of(
    st.text(),
    st.builds(
        "I=[{}];sigma={};tau={};rho={}".format,
        st.lists(st.integers(-1, 5), max_size=4).map(lambda I: ",".join(map(str, I))),
        WORDS,
        WORDS,
        WORDS,
    ),
)


@SETTINGS
@given(st.sampled_from(TYPES), LABEL_TEXT)
def test_parse_label_raises_only_label_parse_error(name, text):
    rs = SYSTEMS[name]
    try:
        O = parse_label(rs, text)
    except LabelParseError:
        return
    assert label_str(O) == text.strip()  # only canonical spellings are accepted


# ---------------------------------------------------------------- Cartan matrices


@SETTINGS
@given(
    st.one_of(st.just(2), st.integers(-1, 3)),
    st.integers(-5, 2),
    st.integers(-5, 2),
    st.one_of(st.just(2), st.integers(-1, 3)),
)
def test_rank2_cartan_accepted_iff_finite_type(d1, a12, a21, d2):
    finite = (
        d1 == d2 == 2
        and a12 <= 0
        and a21 <= 0
        and (a12 == 0) == (a21 == 0)
        and a12 * a21 in (0, 1, 2, 3)
    )
    try:
        rs = build_root_system([[d1, a12], [a21, d2]])
    except ValueError:
        assert not finite
    else:
        assert finite
        # dihedral of order 2m with m = 2, 3, 4, 6
        assert len(enumerate_group(rs)) == {0: 4, 1: 6, 2: 8, 3: 12}[a12 * a21]


@st.composite
def symmetrizable_cartans(draw):
    """A rank-3 or rank-4 Cartan-shaped matrix C = D^-1 B with D = diag(d) and
    B symmetric, returned with d."""
    n = draw(st.integers(3, 4))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            b = -draw(st.sampled_from((0, 0, 1, 1, 2))) * math.lcm(d[i], d[j])
            c[i][j], c[j][i] = b // d[i], b // d[j]
    return c, d


def leibniz_det(m):
    total = Fraction(0)
    for p in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(p[b] > p[a] for a in range(len(p)) for b in range(a))
        term = Fraction(sign)
        for i, j in enumerate(p):
            term *= m[i][j]
        total += term
    return total


@SETTINGS
@given(symmetrizable_cartans())
def test_cartan_accepted_iff_leading_minors_positive(cd):
    c, d = cd
    n = len(c)
    # the library scales each connected component of the Dynkin diagram so
    # that its first simple root gets d = 1
    first = list(range(n))
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if c[i][j]:
                    first[i] = min(first[i], first[j])
    sym = [[Fraction(d[i], d[first[i]]) * c[i][j] for j in range(n)] for i in range(n)]
    minors = [leibniz_det([row[:k] for row in sym[:k]]) for k in range(1, n + 1)]
    bad = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
    try:
        build_root_system(c)
    except ValueError as e:
        assert bad is not None
        assert str(e) == (
            "not finite type: leading principal minor %d of the symmetrized "
            "Cartan matrix is %s <= 0" % (bad, minors[bad - 1])
        )
    else:
        assert bad is None


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
SPECS = st.one_of(
    JSON,
    st.dictionaries(st.sampled_from(["type", "cartan", "nonreduced", "weights"]), JSON),
    st.fixed_dictionaries(
        {"cartan": st.lists(st.lists(st.integers(-3, 2), max_size=3), max_size=3)},
        optional={"nonreduced": JSON, "weights": JSON},
    ),
    st.fixed_dictionaries(
        {"type": st.sampled_from(TYPES)},
        optional={"weights": st.dictionaries(st.text(max_size=2), JSON, max_size=3)},
    ),
)


@SETTINGS
@given(SPECS)
def test_system_from_spec_raises_only_value_error(spec):
    try:
        rs, wf = system_from_spec(spec)
    except ValueError:
        return
    assert wf.system is rs

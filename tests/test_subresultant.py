"""Seeded property tests of the subresultant resultant and discriminant
against the Sylvester-matrix oracles of tests/oracles.py, which share no
code with polyring: degrees 1-8, non-monic and negative leading
coefficients, content > 1, the sign when deg f < deg g are both odd, and
polynomials with a common or repeated factor, whose value is 0.
hypothesis is test-only."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from polylcm.polyring import IntPoly, discriminant, resultant  # noqa: E402

from oracles import disc_via_sylvester, sylvester_resultant  # noqa: E402

seeded = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Leading coefficients of either sign, monic ones among them.
leading = st.sampled_from((1, -1, 2, -2, 3, -5, 7, -12))
# A common factor of every coefficient: content 1 or more.
content = st.sampled_from((1, 1, 2, 3, -4, 6))


@st.composite
def poly(draw, degrees=st.integers(1, 8)):
    d = draw(degrees)
    lower = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    c = draw(content)
    return IntPoly(tuple(c * x for x in lower + [draw(leading)]))


def _sylvester(f: IntPoly, g: IntPoly) -> int:
    return sylvester_resultant(list(f.coeffs), list(g.coeffs))


@seeded
@given(f=poly(), g=poly())
def test_resultant_equals_sylvester(f, g):
    assert resultant(f, g) == _sylvester(f, g)


@st.composite
def odd_degrees_lower_first(draw):
    df = draw(st.sampled_from((1, 3, 5)))
    dg = draw(st.sampled_from([d for d in (3, 5, 7) if d > df]))
    return draw(poly(st.just(df))), draw(poly(st.just(dg)))


@seeded
@given(pair=odd_degrees_lower_first())
def test_resultant_sign_when_lower_degree_first_and_both_odd(pair):
    # Res(f, g) = (-1)^(deg f deg g) Res(g, f): both degrees odd flip it.
    f, g = pair
    assert resultant(f, g) == _sylvester(f, g) == -resultant(g, f)


@seeded
@given(h=poly(st.integers(1, 3)), u=poly(st.integers(1, 4)), v=poly(st.integers(1, 4)))
def test_common_factor_gives_zero(h, u, v):
    f, g = h * u, h * v
    assert resultant(f, g) == _sylvester(f, g) == 0


@seeded
@given(f=poly(st.integers(2, 8)))
def test_discriminant_equals_sylvester(f):
    assert discriminant(f) == disc_via_sylvester(list(f.coeffs))


@seeded
@given(h=poly(st.integers(1, 2)), u=poly(st.integers(0, 4)))
def test_repeated_root_gives_zero_discriminant(h, u):
    f = h * h * u
    assert discriminant(f) == disc_via_sylvester(list(f.coeffs)) == 0

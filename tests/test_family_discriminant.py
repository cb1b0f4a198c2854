"""Property tests of the per-family discriminant D(a) = disc(f0 - a), which
is interpolated into integer coefficients from the first d shifts asked
about and then evaluated by Horner's rule.  Every value must equal the subresultant discriminant and sympy's,
whatever order the shifts arrive in, and while more families interleave
than the family cache keeps.  sympy and hypothesis are test-only."""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from polylcm import polyring  # noqa: E402
from polylcm.polyring import IntPoly, ShiftedPoly, _family_discriminant, discriminant  # noqa: E402

X = sympy.Symbol("x")
A_MAX = 10**12
FAMILY_CACHE = 8

# Non-monic and negative leading coefficients as well as monic ones.
leading = st.sampled_from((1, -1, 2, -3, 5, -12))


@st.composite
def family(draw):
    d = draw(st.integers(2, 10))
    lower = draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
    f0 = IntPoly(tuple(lower) + (draw(leading),))
    small = st.integers(-50, 50)
    big = st.integers(-A_MAX, A_MAX)
    shifts = draw(st.lists(small | big, min_size=d + 1, max_size=d + 2, unique=True))
    return f0, shifts


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    families=st.lists(
        family(), min_size=FAMILY_CACHE + 1, max_size=FAMILY_CACHE + 2, unique_by=lambda t: t[0]
    ),
    data=st.data(),
)
def test_family_value_equals_subresultant_and_sympy(families, data):
    polyring._disc_family.cache_clear()
    queries = [(f0, a) for f0, shifts in families for a in shifts]
    # Any arrival order: the first d shifts of a family come in any order,
    # and families interleave, so the cache evicts and rebuilds them.
    for f0, a in data.draw(st.permutations(queries)):
        fa = ShiftedPoly(f0, a).to_poly()
        got = _family_discriminant(f0, a)
        assert got == discriminant(fa), (f0, a)
        assert got == sympy.discriminant(sympy.Poly(list(reversed(fa.coeffs)), X)), (f0, a)


def test_degree_below_two_raises_like_discriminant():
    for f0 in (IntPoly((3, 1)), IntPoly((4,))):
        with pytest.raises(ValueError, match="discriminant needs degree >= 2"):
            _family_discriminant(f0, 1)

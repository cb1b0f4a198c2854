"""The family batch ``polyring.irreducible_shifts`` against the single-shift
``is_irreducible_over_Q``: over a range of shifts their verdicts must agree
byte for byte, for random families and for the inputs each batch stage is
there for (rational roots far out, D(a) = 0, reducible shifts with no
rational root, binomials by Capelli's criterion), including windows grown
piece by piece over the pattern rows a family keeps, and with the same
errors.  Both run one pipeline, ``polyring._verdicts``, so windows are also
checked against sympy's factorisation over Q, which shares no code with
either: random monic and non-monic families, planted products, and
binomials.  hypothesis and sympy are test-only."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from polylcm import polyring  # noqa: E402
from polylcm.polyring import (  # noqa: E402
    IntPoly,
    ShiftedPoly,
    _rational_root_shifts,
    irreducible_shifts,
    is_irreducible_over_Q,
)

SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
# sympy takes about 1 ms a shift, so its windows draw fewer examples.
SYMPY_SETTINGS = settings(SETTINGS, max_examples=20)


def _one_by_one(f0, lo, hi):
    return bytes(is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly()) for a in range(lo, hi))


def _assert_batch_matches(f0, lo, hi):
    assert irreducible_shifts(f0, lo, hi) == _one_by_one(f0, lo, hi), (f0.coeffs, lo, hi)


def _assert_pieces_match(f0, lo, mid, hi):
    # [lo, hi) decided whole, and as [lo, mid) and [mid, hi) in either
    # order, each over the pattern rows the pieces before it left behind.
    whole = _one_by_one(f0, lo, hi)
    for first, second in (((lo, mid), (mid, hi)), ((mid, hi), (lo, mid))):
        polyring._family_pattern_rows.cache_clear()
        pieces = {first: irreducible_shifts(f0, *first), second: irreducible_shifts(f0, *second)}
        assert pieces[(lo, mid)] + pieces[(mid, hi)] == whole, (f0.coeffs, first)
        assert irreducible_shifts(f0, lo, hi) == whole, (f0.coeffs, first)


@st.composite
def monic_family(draw, degrees=(2, 8), span=20):
    d = draw(st.integers(*degrees))
    lower = draw(st.lists(st.integers(-span, span), min_size=d, max_size=d))
    if d > 1 and not any(lower[1:]):
        lower[1] = draw(st.sampled_from((-1, 1)))  # not a binomial
    return IntPoly(tuple(lower) + (1,))


@SETTINGS
@given(f0=monic_family(), lo=st.integers(-300, 300), width=st.integers(0, 40))
def test_random_monic_families(f0, lo, width):
    _assert_batch_matches(f0, lo, lo + width)


def _sympy_verdicts(f0, lo, hi):
    # The verdicts of sympy's factorisation over Q, shift by shift.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = []
    for a in range(lo, hi):
        coeffs = ShiftedPoly(f0, a).to_poly().coeffs
        _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), x))
        want.append(len(factors) == 1 and factors[0][1] == 1)
    return bytes(want)


@SETTINGS
@given(f0=monic_family(), lo=st.integers(-300, 300), width=st.integers(0, 12))
def test_random_monic_windows_match_sympy(f0, lo, width):
    hi = lo + width
    assert irreducible_shifts(f0, lo, hi) == _sympy_verdicts(f0, lo, hi), (f0.coeffs, lo)


@st.composite
def non_monic_family(draw, degrees=(2, 6)):
    # lc = +-2 .. +-12, other coefficients in [-9, 9], and gcd(c_1 .. c_d) = 1,
    # so every shift is primitive.
    d = draw(st.integers(*degrees))
    lc = draw(st.integers(2, 12)) * draw(st.sampled_from((-1, 1)))
    lower = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    if math.gcd(*lower[1:], lc) != 1:
        lower[1] = draw(st.sampled_from((-1, 1)))
    return IntPoly(tuple(lower) + (lc,))


@st.composite
def rational_root_shift(draw, f0):
    # f0(u/v) for some v | lc when it is an integer, else 0: the shift
    # f0 - f0(u/v) has the root u/v.
    lc = abs(f0.lc)
    v = draw(st.sampled_from([v for v in range(1, lc + 1) if lc % v == 0]))
    u = draw(st.integers(-6 * v, 6 * v))
    num = sum(c * u**i * v ** (f0.degree - i) for i, c in enumerate(f0.coeffs))
    q, r = divmod(num, v**f0.degree)
    return 0 if r else q


@SYMPY_SETTINGS
@given(data=st.data(), f0=non_monic_family())
def test_non_monic_windows_match_sympy(data, f0):
    # About 40 shifts around 0, around a shift with a rational root, or
    # anywhere in [-300, 300].
    centre = data.draw(st.one_of(st.just(0), rational_root_shift(f0), st.integers(-300, 300)))
    lo = centre - data.draw(st.integers(0, 40))
    hi = lo + data.draw(st.integers(35, 45))
    assert irreducible_shifts(f0, lo, hi) == _sympy_verdicts(f0, lo, hi), (f0.coeffs, lo)


@SYMPY_SETTINGS
@given(
    g=non_monic_family(degrees=(2, 3)),
    h=non_monic_family(degrees=(2, 3)),
    a0=st.integers(-50, 50),
)
def test_planted_products_match_sympy(g, h, a0):
    # f0 = g h + a0: the shift a0 is reducible, and with g and h of degree
    # >= 2 it may have no rational root, leaving it to stages 2 and 3.
    f0 = g * h + IntPoly((a0,))
    if math.gcd(*f0.coeffs[1:]) != 1:
        return  # some shifts are not primitive
    lo, hi = a0 - 10, a0 + 10
    verdicts = irreducible_shifts(f0, lo, hi)
    assert verdicts[a0 - lo] == 0
    assert verdicts == _sympy_verdicts(f0, lo, hi), (g.coeffs, h.coeffs, a0)


def test_non_monic_binomials_match_sympy():
    # l x^d + c - a is primitive iff gcd(l, c - a) = 1; those shifts, each
    # a window of one of the family, against sympy.  4x^4 + 1, the shift
    # a = c - 1 of 4x^4 + c, is (2x^2 + 2x + 1)(2x^2 - 2x + 1).
    for c in (-3, 0, 5):
        f0 = IntPoly((c, 0, 0, 0, 4))
        assert irreducible_shifts(f0, c - 1, c) == b"\x00"
    for lc in (2, 4, 9, 12):
        for d in range(2, 7):
            f0 = IntPoly((0,) * d + (lc,))
            for a in range(-30, 31):
                if math.gcd(lc, a) == 1:
                    got = irreducible_shifts(f0, a, a + 1)
                    assert got == _sympy_verdicts(f0, a, a + 1), (lc, d, a)


@SETTINGS
@given(
    f0=monic_family(degrees=(4, 8)),
    lo=st.integers(-300, 300),
    first=st.integers(0, 30),
    second=st.integers(0, 30),
)
def test_pieces_of_a_window_join_to_it(f0, lo, first, second):
    _assert_pieces_match(f0, lo, lo + first, lo + first + second)


def test_x4_plus_x_grows_like_the_bench_record():
    # The verdict record of x^4 + x grows from [-200, 200] to [-1053, 1053]
    # one side at a time.
    f0 = IntPoly((0, 1, 0, 0, 1))
    _assert_pieces_match(f0, -200, 201, 1054)
    _assert_pieces_match(f0, -1053, -200, 201)


def test_pattern_rows_build_each_residue_once(monkeypatch):
    # Every (p, a mod p) the window meets is built once, and a window whose
    # shifts were all decided before builds no pattern at all.
    calls = []
    pattern = polyring._degree_pattern_mod_p
    monkeypatch.setattr(
        polyring, "_degree_pattern_mod_p", lambda f, p: calls.append(p) or pattern(f, p)
    )
    f0 = IntPoly((3, -2, 0, 1, 1))
    polyring._family_pattern_rows.cache_clear()
    whole = irreducible_shifts(f0, -300, 301)
    rows = polyring._family_pattern_rows(f0.coeffs)
    assert len(calls) == sum(int((row >= 0).sum()) for row in rows.values()) > 0
    built = len(calls)
    part = irreducible_shifts(f0, -250, -50)
    assert len(calls) == built
    assert part == whole[50:250]
    monkeypatch.undo()
    assert whole == _one_by_one(f0, -300, 301)


@pytest.mark.parametrize(
    "coeffs", [(3, -2, 0, 1, 1), (0, 1, 0, 0, 1), (0, 0, 2, 0, 1), (1, 0, -3, 0, 0, 1)]
)
def test_a_pattern_row_reads_zero_exactly_where_p_divides_D(coeffs):
    # The batch skips a prime where the row reads 0, that is where the
    # pattern of f0 - r mod p is None; for monic f0 that is where p | D(r).
    f0 = IntPoly(coeffs)
    for p in polyring._PATTERN_PRIMES[:12]:
        for r in range(p):
            unusable = polyring._degree_pattern_mod_p(ShiftedPoly(f0, r).to_poly(), p) is None
            assert unusable == (polyring._family_discriminant(f0, r) % p == 0), (coeffs, p, r)


def test_a_zero_discriminant_ends_the_prime_walk():
    # (x^2 + 1)^2 = f0 + 1 has no rational root and D(-1) = 0, so every
    # prime skips it; once their product exceeds the bound on |D| over the
    # window the shift is settled, long before the primes run out.
    f0 = IntPoly((0, 0, 2, 0, 1))
    polyring._family_pattern_rows.cache_clear()
    assert irreducible_shifts(f0, -1, 0) == b"\x00"
    assert len(polyring._family_pattern_rows(f0.coeffs)) < 10


@pytest.mark.parametrize("coeffs", [(0, 0, 1, 0, 1), (4, 0, -5, 0, 1)])
def test_biquadratic_windows_reach_kronecker(coeffs):
    # x^4 + x^2 - a and x^4 - 5x^2 + 4 - a split into quadratics without a
    # rational root at many shifts, so their windows lean on stage 3.
    _assert_batch_matches(IntPoly(coeffs), -60, 61)


def test_a_window_above_int64():
    f0 = IntPoly((0, 1, 0, 0, 1))
    _assert_batch_matches(f0, 10**20, 10**20 + 30)


@SETTINGS
@given(
    g=monic_family(degrees=(1, 7), span=3),
    n=st.integers(-400, 400),
    a0=st.integers(-50, 50),
    before=st.integers(0, 20),
    after=st.integers(1, 20),
)
def test_planted_integer_root_far_out(g, n, a0, before, after):
    # f0 = (x - n) g(x) + a0: the shift a0 has the integer root n, which
    # lies within a constant factor of Fujiwara's bound when |n| is large.
    f0 = IntPoly((-n, 1)) * g + IntPoly((a0,))
    if not any(f0.coeffs[1:-1]):
        return
    lo, hi = a0 - before, a0 + after
    assert a0 in _rational_root_shifts(f0, lo, hi)
    _assert_batch_matches(f0, lo, hi)


@pytest.mark.parametrize("n", (-37, -5, 6, 41))
def test_integer_roots_from_the_constant_term(n):
    # x^4 + x has c_3 = c_2 = 0, so only the shift's constant term bounds
    # its roots; n^4 + n is reducible, its neighbours are not.
    f0 = IntPoly((0, 1, 0, 0, 1))
    a = f0(n)
    assert irreducible_shifts(f0, a - 2, a + 3) == bytes((1, 1, 0, 1, 1))


def test_short_ranges_take_divisor_tests():
    # A coefficient of 10^6 puts Fujiwara's bound at 2 * 10^6: a range of a
    # few shifts tests their divisors instead of scanning 4 * 10^6 values.
    f0 = IntPoly((0, 3, 0, 10**6, 1))
    n = -(10**6)
    for lo, hi in ((f0(n) - 2, f0(n) + 3), (-2, 3)):
        assert _rational_root_shifts(f0, lo, hi) == {a for a in range(lo, hi) if a in (0, f0(n))}
        _assert_batch_matches(f0, lo, hi)


def test_zero_discriminant_shifts():
    # x^4 - 2x^2 + 1 = (x^2 - 1)^2 has integer roots; (x^2 + 1)^2 and
    # (x^2 + x + 1)^2 have none, so only D(a) = 0 marks them reducible.
    for coeffs in ((0, 0, -2, 0, 1), (0, 0, 2, 0, 1), (0, 2, 3, 2, 1)):
        f0 = IntPoly(coeffs)
        assert polyring._family_discriminant(f0, -1) == 0
        assert irreducible_shifts(f0, -1, 0) == b"\x00"
        _assert_batch_matches(f0, -4, 3)


def test_reducible_without_rational_root_reaches_kronecker():
    # f0 = y^2 + y with y = x^2 + x: f0 - a = (y - r)(y - r') once 1 + 4a
    # is a square.  At a = 2 the factors x^2 + x - 1 and x^2 + x + 2 have
    # no rational root; at a = 6 the factor x^2 + x - 2 has roots 1 and -2.
    f0 = IntPoly((0, 1, 2, 2, 1))
    assert not _rational_root_shifts(f0, 2, 3)
    assert polyring._family_discriminant(f0, 2) != 0
    assert irreducible_shifts(f0, 2, 3) == b"\x00"
    assert _rational_root_shifts(f0, 6, 7) == {6}
    _assert_batch_matches(f0, -3, 13)


def test_batch_decides_every_family():
    # A monic binomial, a non-monic quadratic and cubic, and degree 1, whose
    # shifts are all irreducible.
    for coeffs in ((5, 0, 0, 1), (-3, 0, 0, 0, 1), (1, 1, 2), (1, 1)):
        f0 = IntPoly(coeffs)
        assert irreducible_shifts(f0, 0, 5) == _sympy_verdicts(f0, 0, 5), coeffs
    assert irreducible_shifts(IntPoly((1, 1)), -3, 4) == b"\x01" * 7


@pytest.mark.parametrize(
    "coeffs",
    [
        (0, 0, 0, 1),  # x^3
        (0, 0, 0, 0, 1),  # x^4
        (0, 0, 0, 0, 0, 0, 1),  # x^6
        (1, 1, 0, 3),  # 3x^3 + x + 1
        (0, 2, -1, 0, 2),  # 2x^4 - x^2 + 2x
        (0, 1, 0, 0, 1),  # x^4 + x, the batch
    ],
)
def test_decide_matches_one_by_one(coeffs):
    f0 = IntPoly(coeffs)
    assert irreducible_shifts(f0, -70, 71) == _one_by_one(f0, -70, 71)


@pytest.mark.parametrize("d", range(2, 9))
def test_decide_matches_one_by_one_on_binomials(d):
    # x^d + c - a for shifts around a = c, where f0 - a = x^d, and around
    # perfect powers far out.
    for c in (-17, -4, -1, 0, 1, 3, 64):
        f0 = IntPoly((c,) + (0,) * (d - 1) + (1,))
        for lo in (c - 40, 5**d + c - 20, -(7**d) + c - 20):
            assert irreducible_shifts(f0, lo, lo + 41) == _one_by_one(f0, lo, lo + 41), (d, c, lo)


def test_binomial_verdicts_match_sympy():
    # Capelli's criterion against sympy's factorisation over Q, an
    # independent implementation, on x^d - m with m within 1 of +-b^t, t a
    # prime dividing d, and of -4b^4, b < 6: each m both alone, as
    # is_irreducible_over_Q decides it, and inside a window of the family x^d.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for d in range(2, 13):
        f0 = IntPoly((0,) * d + (1,))
        near = {-4 * b**4 for b in range(6)}
        near |= {s * b**t for t in sympy.primefactors(d) for b in range(6) for s in (1, -1)}
        for v in sorted(near):
            window = polyring._binomial_shifts(f0, v - 1, v + 2)
            for m, in_window in zip((v - 1, v, v + 1), window):
                _, factors = sympy.factor_list(x**d - m)
                want = len(factors) == 1 and factors[0][1] == 1
                alone = is_irreducible_over_Q(ShiftedPoly(f0, m).to_poly())
                assert alone == bool(in_window) == want, (d, m)


def test_decide_finds_x4_plus_4b4():
    # x^4 + 4b^4 = (x^2 + 2bx + 2b^2)(x^2 - 2bx + 2b^2): the shifts
    # a = 3 - 4b^4 of x^4 + 3 are reducible, though -4b^4 is no power.
    f0 = IntPoly((3, 0, 0, 0, 1))
    verdicts = irreducible_shifts(f0, -2600, 3)
    assert verdicts == _one_by_one(f0, -2600, 3)
    reducible = [a for a in range(-2600, 3) if not verdicts[a + 2600]]
    assert reducible == [3 - 4 * b**4 for b in (5, 4, 3, 2, 1)]


def test_decide_keeps_the_non_primitive_error():
    # 2x^3 + 4x - a is not primitive at even a; the per-shift test refuses
    # it, and so does every window that holds one.
    f0 = IntPoly((0, 4, 0, 2))
    with pytest.raises(ValueError, match="requires a primitive polynomial"):
        is_irreducible_over_Q(f0)
    for lo, hi in ((-3, 3), (1, 3), (-2, -1)):
        with pytest.raises(ValueError, match="requires a primitive polynomial"):
            irreducible_shifts(f0, lo, hi)
    for a in (-3, 1, 5):
        assert irreducible_shifts(f0, a, a + 1) == _one_by_one(f0, a, a + 1)


def test_the_bench_warm_up_does_not_import_numpy_ma():
    # x4-sweep's warm-up, reducible_count(x^4 + x, 200), then a window of a
    # non-monic family and a one-off verdict, in a fresh interpreter:
    # np.unique would import numpy.ma lazily, a cost the warm-up would carry.
    src = str(Path(polyring.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from polylcm.ensemble import reducible_count\n"
        "from polylcm.polyring import IntPoly, irreducible_shifts, is_irreducible_over_Q\n"
        "reducible_count(IntPoly((0, 1, 0, 0, 1)), 200)\n"
        "irreducible_shifts(IntPoly((1, 0, 3, 0, 2)), -200, 201)\n"
        "is_irreducible_over_Q(IntPoly((5, 1, -3, 0, 2)))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

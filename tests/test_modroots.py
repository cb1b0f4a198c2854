import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from polylcm import modroots, ntkernel
from polylcm.errors import DegenerateReductionError, ResourceLimitError
from polylcm.modroots import (
    BRUTE_FORCE_LIMIT,
    RootTable,
    roots_mod_p,
    roots_mod_pk,
    sigma,
    sigma_via_expsum,
    weil_sum,
    weil_sums,
)
from polylcm.ntkernel import is_prime, sieve_primes
from polylcm.polyring import IntPoly, ShiftedPoly, _horner_mod, discriminant

from oracles import brute_roots_mod, eval_poly, residue_counts, weil_sum_direct


def _random_monic(rng, d, span=9):
    return IntPoly(tuple(rng.randint(-span, span) for _ in range(d)) + (1,))


class TestRootsModP:
    def test_examples(self, x3):
        assert roots_mod_p(ShiftedPoly(x3, 1), 7).roots == (1, 2, 4)
        assert roots_mod_p(ShiftedPoly(x3, 2), 7).roots == ()
        for a in range(-20, 21):
            assert roots_mod_p(ShiftedPoly(x3, a), 3).count == 1

    def test_rho_bounded_by_degree(self, x3):
        for p in sieve_primes(101):
            for a in range(-5, 6):
                assert roots_mod_p(ShiftedPoly(x3, a), p).count <= 3

    def test_agreement_with_enumeration(self):
        rng = random.Random(808)
        primes = sieve_primes(101).primes
        for _ in range(100):
            f0 = _random_monic(rng, rng.randint(2, 5))
            a = rng.randint(-50, 50)
            p = rng.choice(primes)
            fa = ShiftedPoly(f0, a)
            got = roots_mod_p(fa, p).roots
            assert list(got) == brute_roots_mod(fa.to_poly().coeffs, p)

    def test_cz_path_matches_brute_force(self):
        rng = random.Random(909)
        p = 16411  # first prime above the brute-force threshold
        assert p >= BRUTE_FORCE_LIMIT
        for _ in range(20):
            f0 = _random_monic(rng, 3)
            a = rng.randint(-100, 100)
            fa = ShiftedPoly(f0, a)
            got = roots_mod_p(fa, p).roots
            assert list(got) == brute_roots_mod(fa.to_poly().coeffs, p)

    def test_cz_roots_are_the_brute_force_roots(self):
        # Equal-degree splitting draws from a generator seeded by (p, f), so
        # its transcript is fixed, but the root set it returns is complete
        # whatever it draws.  Products of linear factors exercise splitting:
        # degree 2-7, non-monic, negative leading coefficients.
        rng = random.Random(1414)
        primes = [p for p in sieve_primes(1 << 16).primes if p > BRUTE_FORCE_LIMIT]
        for d in range(2, 8):
            for p in rng.sample(primes, 2):
                lc = rng.choice((-1, 1)) * rng.randint(1, 9)
                f = IntPoly((lc,))
                for _ in range(rng.randint(1, d)):
                    f = f * IntPoly((-rng.randrange(p), 1))
                f = f * IntPoly(tuple(rng.randint(-9, 9) for _ in range(d - f.degree)) + (1,))
                assert f.degree == d and f.lc == lc
                got = roots_mod_p(f, p)
                assert list(got.roots) == brute_roots_mod(f.coeffs, p), (f, p)
                assert roots_mod_p(f, p) == got

    def test_degenerate_reports_rho_p(self):
        f = IntPoly((7, 0, 7))
        with pytest.raises(DegenerateReductionError) as err:
            roots_mod_p(f, 7)
        assert err.value.rho == 7

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 25, -7, 16411 * 16417])
    def test_composite_p_rejected(self, x3, p):
        # p = 0 used to divide by zero; a composite p gave a count mod p
        # that is no root count, and sigma(x^3, 1, 9) gave 2.
        with pytest.raises(ValueError, match="p must be prime"):
            roots_mod_p(ShiftedPoly(x3, 1), p)
        with pytest.raises(ValueError, match="p must be prime"):
            sigma(x3, 1, p)


class TestSigma:
    def test_examples(self, x3):
        assert sigma(x3, 2, 7).sigma == -1
        assert sigma(x3, 1, 7).sigma == 2
        assert sigma(x3, 0, 5).sigma == 0

    def test_bounds(self):
        rng = random.Random(1212)
        primes = sieve_primes(199).primes
        for _ in range(300):
            f0 = _random_monic(rng, rng.randint(2, 5))
            s = sigma(f0, rng.randint(-10**6, 10**6), rng.choice(primes)).sigma
            assert -1 <= s <= f0.degree - 1

    def test_monic_required(self):
        with pytest.raises(ValueError):
            sigma(IntPoly((0, 0, 2)), 1, 5)


class TestHensel:
    # Hensel lifting through roots_mod_pk: at a prime not dividing the
    # discriminant every root mod p has exactly one lift to each p**k.
    def test_lift_example(self, x3):
        assert roots_mod_pk(ShiftedPoly(x3, 1), 7, 2).roots == (1, 18, 30)

    def test_empty_lift(self, x3):
        assert roots_mod_pk(ShiftedPoly(x3, 2), 7, 3).roots == ()

    def test_uniqueness_preserves_count(self):
        rng = random.Random(99)
        primes = sieve_primes(101).primes
        done = 0
        while done < 50:
            f0 = _random_monic(rng, rng.randint(2, 4))
            a = rng.randint(-30, 30)
            p = rng.choice(primes)
            fa = ShiftedPoly(f0, a)
            if discriminant(fa) % p == 0:
                continue
            base = roots_mod_p(fa, p).count
            for k in (2, 3):
                assert roots_mod_pk(fa, p, k).count == base
            done += 1

    def test_singular_prime_changes_count(self, x3):
        # 3 | disc(x^3 - 1) = -27: the root 1 mod 3 is singular, and its
        # lifts are not unique (n^3 = 1 mod 9 at n = 1, 4, 7), which is why
        # the uniqueness tests skip the discriminant primes.
        fa = ShiftedPoly(x3, 1)
        assert discriminant(fa) % 3 == 0
        assert roots_mod_p(fa, 3).roots == (1,)
        assert roots_mod_pk(fa, 3, 2).roots == (1, 4, 7)

    def test_lift_roots_verify(self, x3):
        rs = roots_mod_pk(ShiftedPoly(x3, 1), 11, 4)
        for r in rs.roots:
            assert (r**3 - 1) % 11**4 == 0


class TestCountRootsModPk:
    def test_examples(self, x3):
        assert roots_mod_pk(IntPoly((0, 0, 1)), 2, 2).count == 2
        assert roots_mod_pk(ShiftedPoly(x3, 1), 7, 2).count == 3
        assert roots_mod_pk(x3, 3, 2).count == 3

    def test_against_enumeration(self):
        rng = random.Random(404)
        for _ in range(100):
            f0 = _random_monic(rng, rng.randint(2, 4), span=6)
            a = rng.randint(-20, 20)
            p = rng.choice((2, 3, 5, 7))
            k = rng.randint(1, 3)
            fa = ShiftedPoly(f0, a)
            got = roots_mod_pk(fa, p, k)
            expected = brute_roots_mod(fa.to_poly().coeffs, p**k)
            assert list(got.roots) == expected, (f0, a, p, k)

    def test_hensel_consistency_for_good_primes(self):
        rng = random.Random(505)
        primes = sieve_primes(101).primes
        done = 0
        while done < 40:
            f0 = _random_monic(rng, 3)
            a = rng.randint(-20, 20)
            p = rng.choice(primes)
            fa = ShiftedPoly(f0, a)
            if discriminant(fa) % p == 0:
                continue
            rho = roots_mod_p(fa, p).count
            for k in range(1, 6):
                assert roots_mod_pk(fa, p, k).count == rho
            done += 1

    def test_degenerate(self):
        with pytest.raises(DegenerateReductionError):
            roots_mod_pk(IntPoly((25, 0, 25)), 5, 2)

    def test_k_precondition(self, x3):
        with pytest.raises(ValueError):
            roots_mod_pk(x3, 3, 0)

    def test_composite_modulus_rejected(self):
        # Lifting inverts f'(r) mod p, which needs p prime: x^2 - 1 has the
        # four roots 1, 7, 9, 15 mod 16, and a lift "mod 4" finds two.
        assert roots_mod_pk(IntPoly((-1, 0, 1)), 2, 4).roots == (1, 7, 9, 15)
        for p in (4, 9, 1, 0, -7):
            with pytest.raises(ValueError, match="prime"):
                roots_mod_pk(IntPoly((-1, 0, 1)), p, 2)


class TestWeilSum:
    def test_examples(self, x3):
        s = weil_sum(x3, 1, 7)
        assert abs(s - (1 + 6 * math.cos(2 * math.pi / 7))) < 1e-9
        assert abs(s) <= 2 * math.sqrt(7)
        assert abs(weil_sum(x3, 0, 7) - 7) < 1e-9
        assert abs(weil_sum(IntPoly((0, 1)), 3, 11)) < 1e-9

    def test_bound_small_sweep(self):
        for f0 in (IntPoly((0, 0, 0, 1)), IntPoly((0, 1, 0, 0, 1))):
            d = f0.degree
            for p in sieve_primes(61):
                if p <= d:
                    continue
                for b in range(1, p):
                    assert abs(weil_sum(f0, b, p)) <= (d - 1) * math.sqrt(p) + 1e-9

    def test_matches_direct_sum(self):
        # Every entry of the one FFT against the term-by-term sum, at b = 0,
        # 1, p - 1 and a seeded sample.
        rng = random.Random(8009)
        polys = (IntPoly((0, 0, 0, 1)), IntPoly((0, 1, 0, 0, 1)), IntPoly((1, 1, 0, 0, 0, 1)))
        for p in (7, 199, 2003, 8009):
            for f0 in polys:
                sums = weil_sums(f0, p)
                for b in [0, 1, p - 1] + rng.sample(range(p), 3):
                    want = weil_sum_direct(f0.coeffs, b, p)
                    assert abs(sums[b] - want) < 1e-9, (f0, b, p)
                    assert weil_sum(f0, b, p) == sums[b], (f0, b, p)

    def test_b_range_checked(self, x3):
        with pytest.raises(ValueError):
            weil_sum(x3, 7, 7)

    def test_prime_p_required(self, x3):
        with pytest.raises(ValueError, match="prime"):
            weil_sum(x3, 1, 9)

    def test_over_budget_raises_first(self, x3, monkeypatch):
        # weil_sums holds one int64 per residue, so p is held to the sieve's
        # budget before anything is allocated; the budget is lowered so that
        # a missing guard stays small.
        monkeypatch.setattr(ntkernel, "SIEVE_LIMIT_MAX", 100)
        calls = (
            lambda: weil_sums(x3, 101),
            lambda: weil_sum(x3, 1, 101),
            lambda: sigma_via_expsum(x3, 1, 101),
        )
        for call in calls:
            with pytest.raises(ResourceLimitError, match="p = 101 residues exceed budget 100"):
                call()
        assert weil_sums(x3, 97).shape == (97,)


class TestSigmaViaExpsum:
    def test_examples(self, x3):
        assert abs(sigma_via_expsum(x3, 1, 7) - 2.0) < 1e-6
        assert abs(sigma_via_expsum(x3, 2, 7) - (-1.0)) < 1e-6
        assert abs(sigma_via_expsum(x3, 0, 5)) < 1e-6

    def test_matches_root_count_1000_random(self):
        rng = random.Random(616)
        primes = [p for p in sieve_primes(199) if p > 5]
        for _ in range(1000):
            f0 = _random_monic(rng, rng.randint(2, 5), span=7)
            a = rng.randint(-10**4, 10**4)
            p = rng.choice(primes)
            want = sigma(f0, a, p).sigma
            assert abs(sigma_via_expsum(f0, a, p) - want) < 1e-6

    def test_matches_root_table(self):
        rng = random.Random(626)
        f0 = IntPoly((-3, 1, 0, 2, 1))  # x^4 + 2x^3 + x - 3
        table = RootTable(f0)
        for p in (5, 7, 101, 1009):  # every residue
            for a in range(p):
                assert abs(sigma_via_expsum(f0, a, p) - (table.rho_row(p)[a] - 1)) < 1e-6, (a, p)
        # p = 10007: a seeded sample of residues, as each call is O(p log p)
        p = 10007
        for a in [0, 1, p - 1] + rng.sample(range(p), 300):
            assert abs(sigma_via_expsum(f0, a, p) - (len(table.roots(a, p)) - 1)) < 1e-6, (a, p)

    def test_memory_is_linear_in_p(self, x3):
        p = 2003
        tracemalloc.start()
        try:
            sigma_via_expsum(x3, 5, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestRootTable:
    def test_periodicity_1000_random(self, x3):
        rng = random.Random(717)
        table = RootTable(x3)
        primes = sieve_primes(199).primes
        for _ in range(1000):
            p = rng.choice(primes)
            a = rng.randint(-10**9, 10**9)
            assert table.roots(a, p) == table.roots(a % p, p)
            assert len(table.roots(a, p)) - 1 == sigma(x3, a, p).sigma

    def test_roots_match_direct(self):
        f0 = IntPoly((1, 2, 0, 1))
        table = RootTable(f0)
        for p in (2, 3, 5, 7, 11, 101, 997):
            for a in (-3, 0, 5, 1234):
                assert table.roots(a, p) == roots_mod_p(ShiftedPoly(f0, a), p).roots

    def test_matches_roots_mod_p_on_random_families(self):
        # roots and the rho row (rho and sigma at a mod p) against direct
        # root extraction, on seeded families of degree 2-8 (non-monic,
        # negative leading, coefficients above 2**63), at primes from 2 to
        # 16381 and shifts up to 1e12.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        big = 2**63 + 12345
        coeff = st.integers(-30, 30) | st.integers(-(2**70), 2**70)
        leading = st.sampled_from((1, -1, 2, -3, 5, -12, big, -big))
        prime = st.sampled_from((2, 3, 5, 7, 11, 13, 101, 997, 1009, 16381))
        shift = st.integers(-50, 50) | st.integers(-(10**12), 10**12)

        @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
        @hypothesis.given(
            d=st.integers(2, 8),
            data=st.data(),
            p=prime,
            shifts=st.lists(shift, min_size=1, max_size=4),
            x0=st.integers(-(10**6), 10**6),
        )
        def check(d, data, p, shifts, x0):
            lower = data.draw(st.lists(coeff, min_size=d, max_size=d))
            f0 = IntPoly(tuple(lower) + (data.draw(leading),))
            table = RootTable(f0)
            for a in shifts + [f0(x0)]:  # f0(x0) - a has the root x0
                got = table.roots(a, p)
                assert type(got) is tuple and all(type(x) is int for x in got)
                try:
                    want = roots_mod_p(ShiftedPoly(f0, a), p)
                except DegenerateReductionError:
                    assert got == tuple(range(p)), (f0, a, p)
                    continue
                assert got == want.roots, (f0, a, p)
                rho = table.rho_row(p)
                assert rho[a % p] == len(want.roots), (f0, a, p)
                assert rho.dtype.kind == "i"
                if f0.is_monic:
                    assert rho[a % p] - 1 == sigma(f0, a, p).sigma, (f0, a, p)
                else:
                    assert rho[a % p] - 1 == len(want.roots) - 1, (f0, a, p)

        check()

    def test_degenerate_shift_returns_every_residue(self):
        # When f0 - a vanishes mod p, the table answers with all p residues
        # while roots_mod_p raises: 7 divides every non-constant coefficient.
        f0 = IntPoly((3, 14, 0, 7))  # 7x^3 + 14x + 3
        table = RootTable(f0)
        for a in (3, 10, -4, 7 * 10**12 + 3):
            assert table.roots(a, 7) == tuple(range(7))
            assert table.rho_row(7)[a % 7] == 7
            assert len(table.roots(a, 7)) - 1 == 6
            with pytest.raises(DegenerateReductionError):
                roots_mod_p(ShiftedPoly(f0, a), 7)
        assert table.roots(4, 7) == () and table.rho_row(7)[4] == 0

    def test_memory_is_compact(self, x3):
        # The x^3 table up to 2000 is one int16 residue row, 2 bytes for
        # each of its 277,050 residues; grown in chunks, it peaks under
        # 3 MB.  The CSR rows it replaced took 8 bytes a residue and about
        # 2.4 MB at peak, and the per-prime dict of tuples before them 26 MB.
        primes = sieve_primes(2000).primes
        tracemalloc.start()
        try:
            table = RootTable(x3)
            table.roots_upto(1, 2000)
            for p in primes:
                table.roots(1, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(primes) == 277_050
        assert table._row.dtype == np.int16 and table._row.size == 277_050
        assert peak < 3 * 2**20, peak

    @pytest.mark.parametrize(
        "coeffs", [(0, 0, 0, 1), (0, 1, 0, 0, 1), (1, 1, 0, 16411)],
        ids=["x3", "x4+x", "lc-16411"],
    )
    def test_row_prime_above_the_limit_is_a_plain_count(self, coeffs):
        # From BRUTE_FORCE_LIMIT on the rho row is a transient row of residue
        # counts, equal to a plain count of f0(x) mod p; at 16411 | lc the
        # image drops to degree 1.  Nothing of it is kept.
        table = RootTable(IntPoly(coeffs))
        assert is_prime(16411) and 16411 > BRUTE_FORCE_LIMIT
        row = table.rho_row(16411)
        assert row.tolist() == residue_counts(coeffs, 16411)
        assert table.rho_row(16411) is not row
        assert table._row.size == 0 and not table._term_rows

    def test_row_checks_p_before_allocating(self, x3, monkeypatch):
        # A composite is refused on both sides of the limit, and a prime
        # above the sieve's budget before its row is allocated; the budget
        # is lowered so that a missing guard stays small.
        table = RootTable(x3)
        for n in (16383, 16384, 16385, 16411 * 16417):
            with pytest.raises(ValueError, match="must be prime"):
                table.rho_row(n)
        assert table.rho_row(16381).sum() == 16381
        monkeypatch.setattr(ntkernel, "SIEVE_LIMIT_MAX", 20000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="p = 20011 residues exceed") as err:
                table.rho_row(20011)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.traceback[-1].name == "_residue_counts"
        assert peak < 20011 * 8, peak
        assert table.rho_row(19997).sum() == 19997


class TestRootScan:
    # RootTable.roots_upto against roots_mod_p at every prime p <= N, with
    # every residue where f0 - a vanishes mod p.

    @staticmethod
    def _direct(f0, a, N):
        pairs = []
        for p in sieve_primes(max(N, 2)).upto(N):
            try:
                roots = roots_mod_p(ShiftedPoly(f0, a), p).roots
            except DegenerateReductionError:
                roots = range(p)
            pairs += [(p, r) for r in roots]
        return pairs

    @staticmethod
    def _scan(table, a, N):
        primes, roots = table.roots_upto(a, N)
        assert primes.dtype == roots.dtype == np.int64
        return list(zip(primes.tolist(), roots.tolist()))

    def test_matches_roots_mod_p_on_random_families(self):
        # The families and shifts of TestRootTable's hypothesis test, each
        # table scanned at several N so that it grows between scans.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        big = 2**63 + 12345
        coeff = st.integers(-30, 30) | st.integers(-(2**70), 2**70)
        leading = st.sampled_from((1, -1, 2, -3, 5, -12, big, -big))
        shift = st.integers(-50, 50) | st.integers(-(10**12), 10**12)

        @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
        @hypothesis.given(
            d=st.integers(2, 8),
            data=st.data(),
            shifts=st.lists(shift, min_size=1, max_size=4),
            x0=st.integers(-(10**6), 10**6),
            bounds=st.lists(st.integers(1, 400), min_size=1, max_size=3),
        )
        def check(d, data, shifts, x0, bounds):
            lower = data.draw(st.lists(coeff, min_size=d, max_size=d))
            f0 = IntPoly(tuple(lower) + (data.draw(leading),))
            table = RootTable(f0)
            for a, N in zip(shifts + [f0(x0)], itertools.cycle(bounds)):
                assert self._scan(table, a, N) == self._direct(f0, a, N), (f0, a, N)

        check()

    def test_degenerate_shifts(self):
        # 7x^3 + 14x + 3 - a vanishes mod 7 when a = 3 (mod 7), and
        # 16411 (x^3 + x) + 5 - a mod 16411 when a = 5 (mod 16411): both
        # scans list every residue there, as roots does.
        f0 = IntPoly((3, 14, 0, 7))
        table = RootTable(f0)
        for a in (3, 10, -4, 7 * 10**12 + 3, 4):
            assert self._scan(table, a, 60) == self._direct(f0, a, 60), a
        assert [r for p, r in self._scan(table, 3, 60) if p == 7] == list(range(7))
        big = IntPoly((5, 16411, 0, 16411))
        table = RootTable(big)
        pairs = self._scan(table, 5 - 2 * 16411, 16411)
        assert [r for p, r in pairs if p == 16411] == list(range(16411))
        assert table.roots(5, 16411) == tuple(range(16411)) and table.rho_row(16411)[5] == 16411
        assert pairs == self._direct(big, 5 - 2 * 16411, 16411)

    def test_shifts_beyond_int64(self):
        # a mod p is taken in Python ints when a does not fit int64.
        f0 = IntPoly((1, -2, 0, 1))
        table = RootTable(f0)
        for a in (2**63, -(2**63) - 1, 2**64 + 3, -(3**50), f0(2**40)):
            assert self._scan(table, a, 300) == self._direct(f0, a, 300), a

    def test_crossing_brute_force_limit(self, x3_plus_2x):
        # Above BRUTE_FORCE_LIMIT every prime's roots come from roots_mod_p.
        N = BRUTE_FORCE_LIMIT + 120
        table = RootTable(x3_plus_2x)
        for a in (7, -123456789):
            assert self._scan(table, a, N) == self._direct(x3_plus_2x, a, N), a
        assert table._primes[-1] == sieve_primes(BRUTE_FORCE_LIMIT).primes[-1]


class TestExactRows:
    # A row segment's residues are read from f0(0 .. K-1), evaluated in
    # int64 by the growth that needs them, while sum |c_i| (K-1)**i fits, K
    # the next power of two >= the largest prime of the growth; past that
    # bound they come from Horner mod p.  Either way the segment is the one
    # that Horner mod p gives.
    TARGETS = [2**63 - 2, 2**63 - 1, 2**63]

    @staticmethod
    def _horner_row(f0, p):
        return _horner_mod(f0.coeffs, np.arange(p, dtype=np.int64), p).tolist()

    @staticmethod
    def _exact_passes(monkeypatch):
        # (K, f0(0 .. K-1)) of every exact pass: a growth asks
        # _horner_values for f0(1 .. K-1) and only on the exact branch.
        passes = []
        horner = modroots._horner_values

        def spy(coeffs, N, dtype):
            values = horner(coeffs, N, dtype)
            passes.append((N + 1, [coeffs[0]] + values.tolist()))
            return values

        monkeypatch.setattr(modroots, "_horner_values", spy)
        return passes

    @staticmethod
    def _coeffs_at_bound(rng, d, N, B):
        # Degree d with sum |c_i| N**i == B exactly and every sign random:
        # the lead is non-monic and negative half the time.
        mid = [rng.randint(-9, 9) for _ in range(d - 1)]
        room = B - sum(abs(c) * N ** (i + 1) for i, c in enumerate(mid))
        lead = max(1, room // N**d - rng.randint(0, 3))
        sign = lambda: rng.choice((1, -1))
        return (sign() * (room - lead * N**d), *mid, sign() * lead)

    @pytest.mark.parametrize("B", TARGETS, ids=["below", "at", "above"])
    def test_rows_at_int64_boundary(self, B, monkeypatch):
        rng = random.Random(B)
        passes = self._exact_passes(monkeypatch)
        primes = sieve_primes(BRUTE_FORCE_LIMIT - 1).primes
        for _ in range(16):
            d = rng.randint(2, 10)
            fits = [p for p in primes if 16 * ((1 << (p - 1).bit_length()) - 1) ** d <= B]
            p = rng.choice(fits)
            K = 1 << (p - 1).bit_length()
            coeffs = self._coeffs_at_bound(rng, d, K - 1, B)
            # the mixed signs, then all signs equal: |f0(K - 1)| = B itself
            same = tuple(abs(c) for c in coeffs)
            for cs in (coeffs, same, tuple(-c for c in same)):
                f0 = IntPoly(cs)
                table = RootTable(f0)
                passes.clear()
                # A fresh table grows to p itself, its largest prime.
                assert table._segment(p).tolist() == self._horner_row(f0, p), (cs, p)
                assert table._primes[-1] == p
                if B <= 2**63 - 1:
                    assert passes == [(K, [eval_poly(cs, x) for x in range(K)])], (cs, p)
                else:
                    assert passes == [], (cs, p)

    def test_growth_through_both_branches(self, monkeypatch):
        # Degree 6 with a lead of 9 or -12: the bound passes int64 between
        # K = 512 and 1024, so one table takes both branches, the exact one
        # last at K = 512 while the table grows past 512, and each exact
        # pass stays within twice the largest prime built.
        rng = random.Random(606)
        passes = self._exact_passes(monkeypatch)
        for _ in range(4):
            f0 = IntPoly(tuple(rng.randint(-9, 9) for _ in range(6)) + (rng.choice((9, -12)),))
            table = RootTable(f0)
            passes.clear()
            primes = [p for p in sieve_primes(1000).primes if rng.random() < 0.3]
            for p in primes + primes[::-1][:5]:
                assert table._segment(p).tolist() == self._horner_row(f0, p), (f0, p)
                assert passes[-1][0] <= 2 * table._primes[-1], (f0, p)
            K, exact = passes[-1]
            assert K == 512 and table._primes[-1] > K
            assert exact == [f0(x) for x in range(K)]
            for p in table._primes.tolist():
                assert table._segment(p).tolist() == self._horner_row(f0, p), (f0, p)

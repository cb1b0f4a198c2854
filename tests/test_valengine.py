import math
import random

import numpy as np
import pytest

from polylcm.decomp import bad_N, decomposition_report
from polylcm.errors import ZeroValueError
from polylcm.modroots import BRUTE_FORCE_LIMIT, RootTable, roots_mod_pk
from polylcm.ntkernel import sieve_primes
from polylcm.polyring import IntPoly, ShiftedPoly, discriminant
from polylcm import decomp, modroots, ntkernel, polyring, valengine
from polylcm.valengine import (
    _shared_gcds,
    _split_shared,
    alpha_approx_residual,
    alpha_p,
    beta_p,
    build_ledgers,
    log_P,
)

from oracles import (
    alpha_direct,
    beta_direct,
    brute_roots_mod,
    disc_via_sylvester,
    eval_poly,
    shared_cofactors,
    shared_gcds,
    trial_factor,
    trial_primes,
)
from prime_maps import prime_map


def _values(f, N):
    return [f(n) for n in range(1, N + 1)]


def _random_shift(rng, dmin=3, dmax=5, span=9, amax=100):
    d = rng.randint(dmin, dmax)
    f0 = IntPoly(tuple(rng.randint(-span, span) for _ in range(d)) + (1,))
    return ShiftedPoly(f0, rng.randint(-amax, amax))


@pytest.fixture
def root_searches(monkeypatch):
    """The prime of every roots_mod_p call made through either binding."""
    calls = []
    find = modroots.roots_mod_p
    counted = lambda f, p: calls.append(p) or find(f, p)
    monkeypatch.setattr(modroots, "roots_mod_p", counted)
    monkeypatch.setattr(valengine, "roots_mod_p", counted)
    return calls


class TestAlphaBetaSinglePrime:
    def test_examples(self, x3, x2_plus_1):
        f = ShiftedPoly(x2_plus_1, 0)
        assert alpha_p(f, 10, 5) == 5
        assert beta_p(f, 10, 5) == 2
        f32 = ShiftedPoly(x3, 2)
        assert alpha_p(f32, 5, 3) == 2
        assert alpha_p(f32, 5, 11) == 0
        assert beta_p(f32, 5, 3) == 1
        assert beta_p(f32, 5, 11) == 0

    def test_zero_value_error_names_n(self, x3):
        with pytest.raises(ZeroValueError) as err:
            alpha_p(ShiftedPoly(x3, 8), 5, 3)
        assert err.value.n == 2

    @pytest.mark.parametrize("p", [0, 4, 25, 35])
    def test_composite_p_rejected(self, x3, p):
        # alpha_p(x^3 - 2, 10, 4) used to give 0: x^3 = 2 has no root mod 4.
        f = ShiftedPoly(x3, 2)
        for fn in (alpha_p, beta_p):
            with pytest.raises(ValueError, match="p must be prime"):
                fn(f, 10, p)
        with pytest.raises(ValueError, match="p must be prime"):
            alpha_approx_residual(f, 10, p)

    def test_dual_path_equality_50_random(self):
        rng = random.Random(9000)
        primes = sieve_primes(1000).primes
        done = 0
        while done < 50:
            f = _random_shift(rng)
            N = rng.randint(10, 1000)
            try:
                values = _values(f, N)
                if any(v == 0 for v in values):
                    continue
            except OverflowError:
                continue
            for p in rng.sample(primes, 25):
                assert alpha_p(f, N, p) == alpha_direct(values, p), (f, N, p)
                assert beta_p(f, N, p) == beta_direct(values, p), (f, N, p)
            done += 1

    def test_one_root_search_per_call(self, x3, x2_plus_1, root_searches):
        # Each call lifts the roots mod p once through every level k.
        calls = root_searches
        cases = [(ShiftedPoly(x2_plus_1, 0), 10, 5), (ShiftedPoly(x3, 2), 200, 5)]
        for f, N, p in cases:
            values = _values(f, N)
            assert beta_direct(values, p) >= 2, (f, p)  # two or more levels
            for fn, expected in ((alpha_p, alpha_direct), (beta_p, beta_direct)):
                calls.clear()
                assert fn(f, N, p) == expected(values, p)
                assert len(calls) <= 1, (fn.__name__, f, p, calls)

    def test_bad_b1_is_divisibility_count(self, x3):
        # B1 sums, over the discriminant primes p <= N, the number of values
        # divisible by p times log p; disc(x^3 - a) = -27 a^2.
        for a in (2, 5, 6, 10, 21):
            values = _values(ShiftedPoly(x3, a), 50)
            expected = sum(
                sum(1 for v in values if v % p == 0) * math.log(p)
                for p in sieve_primes(50)
                if 27 * a * a % p == 0
            )
            assert bad_N(x3, a, 50).b1 == pytest.approx(expected, rel=1e-12), a

    def test_bad_one_root_search_per_disc_prime(self, root_searches, monkeypatch):
        # bad_N lifts from one family-table lookup per discriminant prime and
        # reads alpha_p and the k = 1 count from that one pass; below the
        # brute-force limit no roots mod p are searched for.
        x4x = IntPoly((0, 1, 0, 0, 1))
        N = 50
        calls = root_searches
        lookups = []
        roots = RootTable.roots
        monkeypatch.setattr(
            RootTable, "roots", lambda t, a, p: lookups.append(p) or roots(t, a, p)
        )
        for a in (3, 7, 12, -3, -7):
            D = -27 - 256 * a**3  # disc(x^4 + x - a)
            disc_primes = [p for p in sieve_primes(N) if D % p == 0]
            assert disc_primes, a
            calls.clear()
            lookups.clear()
            bad_N(x4x, a, N)
            assert lookups == disc_primes, (a, lookups)
            assert all(p >= BRUTE_FORCE_LIMIT for p in calls), (a, calls)


class TestLedgers:
    def test_alpha_example_all_small(self, x3):
        led, _, cof = build_ledgers(ShiftedPoly(x3, -1), 3)
        assert prime_map(led) == {2: 3, 3: 2, 7: 1}
        assert cof == [1, 1, 7]  # 7 > N is left in the cofactor of 28

    def test_alpha_example_cofactor_path(self, x3):
        led = build_ledgers(ShiftedPoly(x3, -1), 6)[0]
        assert prime_map(led)[7] == 3  # 7 | 28, 126, 217 found by factoring

    def test_beta_examples(self, x3, x2_plus_1):
        assert prime_map(build_ledgers(ShiftedPoly(x3, -1), 6)[1])[7] == 1
        led = prime_map(build_ledgers(ShiftedPoly(x2_plus_1, 0), 10)[1])
        assert led[5] == 2
        assert led[13] == 1

    def test_N_equals_1(self, x3):
        f = ShiftedPoly(x3, -1)
        led = prime_map(build_ledgers(f, 1)[0])
        assert led == {2: 1}
        assert prime_map(build_ledgers(f, 1)[1]) == led

    def test_N_below_one_rejected(self, x3):
        for N in (0, -5):
            with pytest.raises(ValueError, match="need N >= 1"):
                build_ledgers(ShiftedPoly(x3, 2), N)
            with pytest.raises(ValueError, match="need N >= 1"):
                decomp.decomposition_report(x3, 2, N)

    def test_completeness_alpha_logsum_is_log_P(self):
        rng = random.Random(31415)
        for _ in range(20):
            f = _random_shift(rng)
            N = rng.randint(5, 300)
            try:
                if any(v == 0 for v in _values(f, N)):
                    continue
            except OverflowError:
                continue
            alpha, beta = map(prime_map, build_ledgers(f, N)[:2])
            lp = log_P(f, N)
            logsum = 0.0
            for p in sorted(alpha):
                logsum += alpha[p] * math.log(p)
            assert abs(logsum - lp) <= 1e-6 * max(1.0, abs(lp))
            for p, e in beta.items():
                assert e <= alpha[p]

    def test_beta_log_bounded_by_max_value(self, x3):
        f = ShiftedPoly(x3, 5)
        N = 200
        maxval = max(abs(v) for v in _values(f, N))
        beta = build_ledgers(f, N)[1]
        for p, e in prime_map(beta).items():
            assert e * math.log(p) <= math.log(maxval) + 1e-9

    def test_large_prime_alpha_cap(self, x3):
        # for p > N: alpha_p <= d * (floor(log_p max|f|) + 1)
        for a in (2, 5, -7):
            f = ShiftedPoly(x3, a)
            for N in (50, 200, 500):
                alpha = build_ledgers(f, N)[0]
                maxval = max(abs(v) for v in _values(f, N))
                for p, e in prime_map(alpha).items():
                    if p > N:
                        k = int(math.log(maxval) / math.log(p))
                        assert e <= 3 * (k + 1), (a, N, p, e)

    def test_root_table_reuse_gives_identical_ledgers(self, x3):
        own = decomposition_report(x3, 44, 150, root_table=RootTable(x3))
        shared = decomposition_report(x3, 44, 150)
        assert own.to_json() == shared.to_json()


class TestRootSieve:
    # The array sieve's alpha, beta and cofactors against trial division of
    # every value by every prime <= N.

    @staticmethod
    def _check(f, N):
        values = valengine._abs_value_array(f, N)
        alpha, beta = valengine._root_sieve(values, N, *RootTable(f.base).roots_upto(f.shift, N))
        direct = [abs(v) for v in _values(f, N)]
        primes = [p for p in trial_primes(N) if any(v % p == 0 for v in direct)]
        assert list(alpha) == list(beta) == primes, (f, N)
        for p in primes:
            assert alpha[p] == alpha_direct(direct, p), (f, N, p)
            assert beta[p] == beta_direct(direct, p), (f, N, p)
        cofactors = []
        for v in direct:
            for p in primes:
                while v % p == 0:
                    v //= p
            cofactors.append(v)
        assert values.tolist() == cofactors, (f, N)
        return values, beta

    def test_int64_values(self):
        rng = random.Random(4242)
        for _ in range(30):
            f = _random_shift(rng, dmin=2, dmax=6)
            N = rng.randint(1, 300)
            if 0 in _values(f, N):
                continue
            assert self._check(f, N)[0].dtype == np.int64

    def test_values_past_int64(self):
        rng = random.Random(4343)
        for _ in range(8):
            d = rng.randint(5, 8)
            f0 = IntPoly(tuple(rng.randint(-(10**12), 10**12) for _ in range(d)) + (3,))
            f = ShiftedPoly(f0, rng.randint(-100, 100))
            if 0 in _values(f, 200):
                continue
            assert self._check(f, 200)[0].dtype == object

    @pytest.mark.parametrize("k", [58, 62, 63, 90])
    def test_deep_2_adic_valuations(self, x3, k):
        # x^3 - a with f(3) = 27 - a = 2**k: one value holds 2**k, and every
        # n = 3 (mod 2**j) holds at least 2**j.  From k = 63 the bound
        # 300**3 + |a| is past int64.
        values, beta = self._check(ShiftedPoly(x3, 27 - 2**k), 300)
        assert beta[2] == k
        assert values.dtype == (np.int64 if k <= 62 else object)


class TestBatchGcd:
    POOL = trial_primes(3000)[300:]  # primes in (1987, 3000]

    def _random_list(self, rng):
        # products of one to three pool primes; a small pool makes sharing common
        pool = rng.sample(self.POOL, rng.randint(3, 40))
        return [math.prod(rng.choices(pool, k=rng.randint(1, 3))) for _ in range(rng.randint(1, 30))]

    def test_matches_pairwise_oracle_on_random_lists(self):
        rng = random.Random(4242)
        for _ in range(300):
            cs = self._random_list(rng)
            if rng.random() < 0.3:
                cs.append(rng.choice(cs))  # a duplicate
            rng.shuffle(cs)
            gs = _shared_gcds(cs)
            assert gs == shared_gcds(cs), cs
            assert [g > 1 for g in gs] == shared_cofactors(cs), cs

    def test_edge_lists(self):
        p, q, r, s, t = 2003, 2011, 2017, 2027, 2029
        cases = [
            [p],  # a single element
            [p * p],
            [p, p],  # duplicates
            [p * q, r, q * s],
            [p * p * q, r, s],  # p^2 inside one cofactor and nowhere else
            [p * q, p * r, p * s, t],  # p shared by three cofactors
            [p, q, r * s, t],  # all coprime
            [p**3, q * r, p * t],
            [],
        ]
        for cs in cases:
            gs = _shared_gcds(cs)
            assert gs == shared_gcds(cs), cs
            assert [g > 1 for g in gs] == shared_cofactors(cs), cs
        assert _shared_gcds([p * p * q, r, s]) == [1] * 3
        assert _shared_gcds([p * q, p * r, p * s, t]) == [p, p, p, 1]
        assert _shared_gcds([p * p * q, p * r, q * q * s]) == [p * q, p, q]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_trees_of_at_most_three_leaves(self, n):
        # The product tree stops at the root's two children, which for three
        # leaves or fewer are the leaves or one pair and a carried leaf; the
        # gcds and the ledger's product read no root.
        p, q, r = 2003, 2011, 2017
        rng = random.Random(n)
        lists = [[p, q, r][:n], [p * q, q * r, r * p][:n], [p * p, p, q][:n]]
        lists += [[math.prod(rng.sample(self.POOL[:6], 2)) for _ in range(n)] for _ in range(20)]
        for cs in lists:
            gs = _shared_gcds(cs)
            assert gs == shared_gcds(cs), cs
            assert [g > 1 for g in gs] == shared_cofactors(cs), cs
            assert valengine.ValuationLedger({}, tuple(cs)).product() == math.prod(cs), cs

    def test_matches_oracles_under_hypothesis(self):
        # Cofactors are products of prime powers from a pool that reaches
        # past 2**64; one planted prime joins the first k cofactors (k >= 3
        # shares it three or more ways), and the first few are repeated.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        primes = st.sampled_from(self.POOL[:12] + [2**64 + 13, 2**89 - 1, 2**127 - 1])
        cofactor = st.lists(st.tuples(primes, st.integers(1, 3)), min_size=1, max_size=3).map(
            lambda fs: math.prod(q**e for q, e in fs)
        )

        @hypothesis.settings(max_examples=100, derandomize=True, deadline=None)
        @hypothesis.given(
            cs=st.lists(cofactor, min_size=1, max_size=10),
            planted=primes,
            k=st.integers(0, 5),
            dups=st.integers(0, 3),
            rnd=st.randoms(use_true_random=False),
        )
        def check(cs, planted, k, dups, rnd):
            cs = [c * planted if i < k else c for i, c in enumerate(cs)]
            cs += cs[:dups]
            rnd.shuffle(cs)
            gs = _shared_gcds(cs)
            assert gs == shared_gcds(cs), cs
            assert [g > 1 for g in gs] == shared_cofactors(cs), cs

        check()

    DEEP_POOL = [q for q in sieve_primes(40000) if q > 3000]

    @pytest.mark.parametrize("n", [257, 1000, 1809])
    def test_deep_trees_match_the_quotient_oracle(self, n):
        # Odd layer lengths at several levels (257 -> 129 -> 65 ..., 1000 ->
        # ... 125 -> 63, 1809 -> 905 -> 453 ...); the root's left child holds
        # the leaves [0, half), and the last leaf is carried unpaired up
        # every odd layer it ends.
        rng = random.Random(n)
        cs = [math.prod(rng.sample(self.DEEP_POOL, rng.randint(1, 2))) for _ in range(n)]
        half = 1 << ((n - 1).bit_length() - 1)
        p, q, r = 2**61 - 1, 1_000_003, 2**31 - 1
        left, right = rng.randrange(1, half), rng.randrange(half, n)
        cs[0] *= p  # p: a pair whose lowest common ancestor is the root
        cs[n - 1] *= p * r  # r: the last leaf and one other
        cs[rng.randrange(n - 1)] *= r
        cs[left] *= q**2  # q: prime powers split across the root's subtrees
        cs[right] *= q**3
        gs = _shared_gcds(cs)
        assert gs == shared_gcds(cs)
        assert gs[0] % p == 0 and gs[n - 1] % (p * r) == 0
        assert gs[left] % q**2 == 0 and gs[right] % q**2 == 0 and gs[right] % q**3
        assert 1 < sum(g > 1 for g in gs) < n

    @pytest.mark.parametrize("coeffs", [(0, 0, 0, 1), (0, 1, 0, 0, 1)], ids=["x3", "x4+x"])
    def test_report_cofactors_match_the_quotient_oracle(self, coeffs):
        rng = random.Random(17)
        for _ in range(3):
            f = ShiftedPoly(IntPoly(coeffs), rng.randint(10**4, 10**6))
            cs = [c for c in build_ledgers(f, 2000)[2] if c > 1]
            assert _shared_gcds(cs) == shared_gcds(cs), f.shift

    def test_forced_entries_equal_trial_division(self):
        rng = random.Random(2718)
        done = 0
        while done < 12:
            f = _random_shift(rng, dmin=3, dmax=4, span=5, amax=50)
            N = rng.randint(20, 120)
            values = _values(f, N)
            if any(v == 0 for v in values):
                continue
            alpha_ref: dict[int, int] = {}
            beta_ref: dict[int, int] = {}
            for v in values:
                for p, e in trial_factor(v):
                    alpha_ref[p] = alpha_ref.get(p, 0) + e
                    beta_ref[p] = max(beta_ref.get(p, 0), e)
            alpha, beta, _ = build_ledgers(f, N)
            alpha_map, beta_map = prime_map(alpha), prime_map(beta)
            assert alpha_map == alpha_ref, (f, N)
            assert beta_map == beta_ref, (f, N)
            products = [math.prod(p**e for p, e in m.items()) for m in (alpha_map, beta_map)]
            assert products == [alpha.product(), beta.product()]
            done += 1

    def test_force_order_does_not_matter(self, x3):
        # The alpha and beta ledgers share one unfactored rest, disjoint
        # from the prime-keyed part, and two builds give the same maps.
        f = ShiftedPoly(x3, 123)
        alpha1, beta1, _ = build_ledgers(f, 400)
        alpha2, beta2, _ = build_ledgers(f, 400)
        assert alpha1.rest and alpha1.rest is beta1.rest
        first = (prime_map(alpha1), prime_map(beta1))
        assert first == (prime_map(alpha2), prime_map(beta2))
        assert not set(alpha1.factored) & {p for c in alpha1.rest for p, _ in trial_factor(c)}


class TestSplitShared:
    # N = 100, so every prime below is > N and N**2 = 10**4.
    Q, R, S = 101, 103, 10007  # S > N**2 is prime; Q * R > N**2 is not

    def _cases(self):
        q, r, s = self.Q, self.R, self.S
        return [
            (q, q),  # g = c
            (q * r, q),
            (q * q * r, q),  # c / g = q * r still holds q
            (q * q * r, q * q),  # composite g above N**2
            (q * r * s, q * r),  # composite g above N**2, prime u above it
            (s * s, s),  # prime g above N**2
            (q * s, s),
        ]

    @staticmethod
    def _expected(c, g):
        # The primes of g with their exponents in c, and the rest of c.
        pairs = trial_factor(c)
        shared = tuple((q, e) for q, e in pairs if g % q == 0)
        return shared, math.prod(q**e for q, e in pairs if g % q)

    @pytest.mark.parametrize("N", [100, 1])
    def test_pairs_and_rest_equal_trial_division(self, N, monkeypatch):
        calls = []
        factor = ntkernel.factor
        monkeypatch.setattr(ntkernel, "factor", lambda m: calls.append(m) or factor(m))
        for c, g in self._cases():
            shared, u = _split_shared(c, g, N)
            assert (shared, u) == self._expected(c, g), (c, g, N)
            assert math.gcd(u, g) == 1 and u * math.prod(q**e for q, e in shared) == c
        # only the composite g above N**2 is factored; c and u never are
        assert calls == [self.Q * self.Q, self.Q * self.R]

    def test_g_up_to_N_squared_is_not_tested(self, monkeypatch):
        # g > 1 whose primes all exceed N is prime when g <= N**2
        fail = lambda m: pytest.fail(f"{m} tested")
        monkeypatch.setattr(ntkernel, "factor", fail)
        monkeypatch.setattr(ntkernel, "is_prime", fail)
        for c, g in self._cases():
            if g <= 100**2:
                assert _split_shared(c, g, 100) == self._expected(c, g), (c, g)

    def test_rest_is_coprime_to_everything_else(self):
        # Seeded degree 3-6 shifts: the rest entries are pairwise coprime and
        # share no prime with the prime-keyed part, and at least one of them
        # is the unshared part of a shared cofactor.
        rng = random.Random(1616)
        split = 0
        for _ in range(12):
            f = _random_shift(rng, dmin=3, dmax=6)
            N = rng.randint(100, 300)
            if 0 in _values(f, N):
                continue
            alpha, beta, cofactors = build_ledgers(f, N)
            rest = alpha.rest
            assert all(math.gcd(x, y) == 1 for i, x in enumerate(rest) for y in rest[:i]), f
            assert all(r % q for q in alpha.factored for r in rest), f
            assert set(alpha.factored) == set(beta.factored), f
            split += len(set(rest) - set(cofactors))
        assert split


class TestLogP:
    def test_examples(self, x3):
        got = log_P(ShiftedPoly(x3, 2), 3)
        assert abs(got - (math.log(1) + math.log(6) + math.log(25))) < 1e-12
        assert abs(log_P(ShiftedPoly(x3, 0), 2) - math.log(8)) < 1e-12

    def test_growth_matches_d_N_logN(self, x3):
        N = 1000
        got = log_P(ShiftedPoly(x3, 2), N)
        assert abs(got - 3 * N * math.log(N)) <= 0.25 * 3 * N * math.log(N)

    def test_shift_one_vanishes_at_one(self, x3):
        # f_1(1) = 0, so log_P is undefined there by contract
        with pytest.raises(ZeroValueError) as err:
            log_P(ShiftedPoly(x3, 1), 1000)
        assert err.value.n == 1

    def test_zero_value(self, x3):
        with pytest.raises(ZeroValueError):
            log_P(ShiftedPoly(x3, 27), 5)


INT64_MAX = 2**63 - 1


def _exact_bound_coeffs(rng, d, N, B):
    # Coefficients of degree d with sum |c_i| N**i == B, mixed signs and a
    # large (non-monic) leading coefficient; f(N) = +-B when all signs agree.
    low = [rng.randint(-9, 9) for _ in range(d - 1)]
    rest = B - sum(abs(c) * N ** (i + 1) for i, c in enumerate(low))
    lead = rest // N**d - rng.randint(0, 3)
    return (rng.choice((1, -1)) * (rest - lead * N**d), *low, rng.choice((1, -1)) * lead)


def _exact_bound_coeffs_with_zero(rng, B):
    # c_d x^d + c_1 x + c_0 with c_0 = -(c_d m^d + c_1 m), so f(m) = 0 for
    # one m in [1, N], and B = c_d (N^d + m^d) + c_1 (N + m) exactly.  For
    # odd d, N + m divides N^d + m^d, so it must divide B.
    divisors = [C for C in range(40, 1501) if B % C == 0]
    while True:
        d = rng.randint(2, 5)
        C = rng.choice(divisors) if d % 2 and divisors else rng.randint(40, 1500)
        m = rng.randint(1, C // 2)
        N, A = C - m, (C - m) ** d + m**d
        g = math.gcd(A, C)
        if B % g:
            continue
        step = C // g
        c_d = B // g * pow(A // g, -1, step) % step if step > 1 else 0
        c_d += step * rng.randint(0, max(0, (B // A - c_d) // step))
        if c_d < 1 or c_d * A > B:
            continue
        c_1 = (B - c_d * A) // C
        coeffs = (-(c_d * m**d + c_1 * m), c_1) + (0,) * (d - 2) + (c_d,)
        sign = rng.choice((1, -1))
        return tuple(sign * c for c in coeffs), N, m


class TestValuePass:
    # The engine evaluates f(1..N) in int64 only while the coefficient bound
    # B = sum |c_i| N**i fits, which bounds every Horner partial sum.
    TARGETS = [INT64_MAX - 1, INT64_MAX, INT64_MAX + 1]

    @staticmethod
    def _check(coeffs, N):
        B = sum(abs(c) * N**i for i, c in enumerate(coeffs))
        expect = [eval_poly(coeffs, n) for n in range(1, N + 1)]
        dtypes = (np.int64, object) if B <= INT64_MAX else (object,)
        for dtype in dtypes:
            values = valengine._horner_values(coeffs, N, dtype)
            assert values.tolist() == expect, (coeffs, N, dtype)
        f = ShiftedPoly(IntPoly(coeffs), 0)
        if 0 not in expect:
            assert valengine._abs_values(f, N) == [abs(v) for v in expect], (coeffs, N)
            return None
        first = expect.index(0) + 1
        with pytest.raises(ZeroValueError) as err:
            valengine._abs_values(f, N)
        assert err.value.n == first, (coeffs, N)
        for dtype in dtypes:
            values = valengine._horner_values(coeffs, N, dtype)
            assert int(np.flatnonzero(values == 0)[0]) + 1 == first, (coeffs, N, dtype)
        return first

    @pytest.mark.parametrize("B", TARGETS, ids=["below", "at", "above"])
    def test_matches_oracle_at_int64_boundary(self, B):
        rng = random.Random(B)
        for _ in range(12):
            d, N = rng.randint(2, 5), rng.randint(20, 1500)
            coeffs = _exact_bound_coeffs(rng, d, N, B)
            assert sum(abs(c) * N**i for i, c in enumerate(coeffs)) == B
            self._check(coeffs, N)
            # all signs equal: |f(N)| = B, the largest value int64 must hold
            same = tuple(abs(c) for c in coeffs)
            self._check(same, N)
            self._check(tuple(-c for c in same), N)
        for _ in range(12):
            coeffs, N, m = _exact_bound_coeffs_with_zero(rng, B)
            assert sum(abs(c) * N**i for i, c in enumerate(coeffs)) == B
            assert self._check(coeffs, N) == m

    def test_shift_enters_the_bound(self):
        # c x^3 fits int64 on [1, 1000]; this shift takes |f(1000) - a| to
        # 2**63, so the pass must run in Python ints.
        N = 1000
        f0 = IntPoly((0, 0, 0, INT64_MAX // N**3))
        a = -(INT64_MAX - f0.coeffs[3] * N**3) - 1
        values = valengine._abs_values(ShiftedPoly(f0, a), N)
        assert values == [abs(eval_poly(f0.coeffs, n) - a) for n in range(1, N + 1)]
        assert values[-1] == INT64_MAX + 1


class TestZeroValues:
    # (f0, a, N): x^3 - 8 vanishes at 2, where 2 and 3 are singular primes;
    # (x - 3)(x - 5)(x + 1) vanishes at 3 and 5, so 3 must be named.
    CASES = [((0, 0, 0, 1), 8, 30), ((0, 7, -7, 1), -15, 40), ((0, 7, -7, 1), -15, 4)]

    @pytest.mark.parametrize("coeffs, a, N", CASES, ids=["x3-a8", "cubic-N40", "cubic-N4"])
    def test_first_zero_is_named(self, coeffs, a, N):
        f0 = IntPoly(coeffs)
        f = ShiftedPoly(f0, a)
        first = next(n for n in range(1, N + 1) if f(n) == 0)
        D = discriminant(f.to_poly())
        # p <= N and p > N, at discriminant primes and elsewhere
        for p in (2, 3, 5, 7, 23, 41, 101):
            for fn in (alpha_p, beta_p) + ((alpha_approx_residual,) if D % p else ()):
                with pytest.raises(ZeroValueError) as err:
                    fn(f, N, p)
                assert err.value.n == first, (fn.__name__, coeffs, a, N, p)
        with pytest.raises(ZeroValueError) as err:
            bad_N(f0, a, N)
        assert err.value.n == first


class TestDiscriminantPrimes:
    def test_lifting_matches_trial_division_and_brute_force(self):
        # Seeded families f0 - a, f0 = (x - r)(x - r - p**e t) g(x): two roots
        # of f0 agree mod p**e, and a multiple a of p**m keeps f0 - a close
        # to f0 p-adically, so the roots mod p are singular to a depth the
        # strategy controls.  a = f0(x0) plants a zero at x0 instead.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        small = st.integers(-12, 12)

        @hypothesis.settings(max_examples=60, derandomize=True, deadline=None)
        @hypothesis.given(
            p=st.sampled_from((2, 3, 5, 7)),
            e=st.integers(1, 4),
            r=st.integers(-40, 40),
            t=small.filter(bool),
            g=st.lists(small, min_size=1, max_size=3),
            m=st.integers(0, 6),
            s=small,
            N=st.integers(1, 150),
            x0=st.none() | st.integers(1, 150),
        )
        def check(p, e, r, t, g, m, s, N, x0):
            f0 = IntPoly((-r, 1)) * IntPoly((-r - p**e * t, 1)) * IntPoly((*g, 1))
            a = f0(x0) if x0 is not None else p**m * s
            f = ShiftedPoly(f0, a)
            fa = list(f.to_poly().coeffs)
            D = disc_via_sylvester(fa)
            hypothesis.assume(D != 0)
            values = [f(n) for n in range(1, N + 1)]
            zero = next((n for n, v in enumerate(values, 1) if v == 0), None)
            disc_primes = [q for q in trial_primes(N) if D % q == 0]
            for q in sorted({p, *disc_primes}):
                k_max = int(math.log(1000, q))
                for k in range(1, k_max + 1):
                    want = tuple(brute_roots_mod(fa, q**k))
                    assert roots_mod_pk(f, q, k).roots == want, (f0, a, q, k)
                if zero is not None:
                    for fn in (alpha_p, beta_p):
                        with pytest.raises(ZeroValueError) as err:
                            fn(f, N, q)
                        assert err.value.n == zero, (fn.__name__, f0, a, N, q)
                    continue
                assert alpha_p(f, N, q) == alpha_direct(values, q), (f0, a, N, q)
                assert beta_p(f, N, q) == beta_direct(values, q), (f0, a, N, q)
            if zero is not None:
                if disc_primes:  # with none, Bad_N is the empty sum
                    with pytest.raises(ZeroValueError) as err:
                        bad_N(f0, a, N)
                    assert err.value.n == zero
                return
            total = b1 = 0.0
            for q in disc_primes:
                total += alpha_direct(values, q) * math.log(q)
                b1 += sum(1 for v in values if v % q == 0) * math.log(q)
            assert tuple(bad_N(f0, a, N)) == (total, b1, total - b1), (f0, a, N)

        check()


class TestAlphaApproxResidual:
    def test_rho_zero_gives_zero(self, x3):
        f = ShiftedPoly(x3, 2)  # 2 is not a cube mod 7
        assert alpha_approx_residual(f, 100, 7) == 0.0

    def test_example(self, x2_plus_1):
        assert alpha_approx_residual(ShiftedPoly(x2_plus_1, 0), 10, 5) == 0.0

    def test_disc_prime_rejected(self, x3):
        with pytest.raises(ValueError):
            alpha_approx_residual(ShiftedPoly(x3, 1), 100, 3)

    def test_one_discriminant_per_polynomial(self, x3, monkeypatch):
        # Every residual reads the family's discriminant polynomial, which
        # costs at most d = 3 subresultants for the whole family.
        shifts = (2, 5, 7, 10, 11)
        nondisc = {a: [p for p in sieve_primes(300) if 27 * a * a % p] for a in shifts}
        calls = []
        resultant = polyring.resultant
        monkeypatch.setattr(polyring, "resultant", lambda f, g: calls.append(f) or resultant(f, g))
        polyring._disc_family.cache_clear()
        for a in shifts:
            for p in nondisc[a]:
                alpha_approx_residual(ShiftedPoly(x3, a), 300, p)
        assert len(calls) <= 3

    def test_one_root_search_per_residual(self, x3, root_searches):
        calls = root_searches
        for a in (2, 5):
            f = ShiftedPoly(x3, a)
            D = discriminant(f.to_poly())
            for p in sieve_primes(1000):
                if D % p:
                    calls.clear()
                    alpha_approx_residual(f, 1000, p)
                    assert calls == [p], (a, p, calls)

    def test_residual_bound_nondisc_primes(self, x3):
        # |residual| <= d * (log_p max|f| + 2) for all p <= N, p not | D
        for a in (2, 5):
            f = ShiftedPoly(x3, a)
            N = 2000
            D = discriminant(f.to_poly())
            maxval = max(abs(v) for v in _values(f, N))
            for p in sieve_primes(N):
                if D % p == 0:
                    continue
                res = alpha_approx_residual(f, N, p)
                assert abs(res) <= 3 * (math.log(maxval) / math.log(p) + 2), (a, p)

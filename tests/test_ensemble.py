import functools
import json
import math
import pickle
import random
import re
import warnings

import numpy as np
import pytest

from polylcm import bad_N, c_N, decomp, e_N_d_N, ensemble, modroots, ntkernel, polyring
from polylcm.constants import COV_SIGMA_FACTOR
from polylcm.ensemble import (
    DEFAULT_SEED,
    QUANTILE_GRID,
    STATISTICS,
    EnsembleStats,
    WindowSpec,
    _irreducible_mask,
    _verdict_record,
    covariance_sigma,
    ensemble_average,
    mean_rho,
    reducible_count,
    theorem_check,
)
from polylcm.errors import (
    DegenerateReductionError,
    EmptyEnsembleError,
    ResourceLimitError,
    WindowViolationError,
    ZeroValueError,
)
from polylcm.polyring import IntPoly, ShiftedPoly, is_irreducible_over_Q

from oracles import kronecker_irreducible, residue_counts, trial_factor


def _delta_oracle(f0, a, N):
    values = [abs(f0(n) - a) for n in range(1, N + 1)]
    alpha, beta = {}, {}
    for v in values:
        for p, e in trial_factor(v):
            alpha[p] = alpha.get(p, 0) + e
            beta[p] = max(beta.get(p, 0), e)
    return sum((alpha[p] - beta[p]) * math.log(p) for p in alpha if p > N)


class TestReducibleCount:
    def test_x4_at_100(self, x4):
        assert reducible_count(x4, 100) == 13

    def test_x3_cubes(self, x3):
        # cubes in [-50, 50]: 0, ±1, ±8, ±27
        assert reducible_count(x3, 50) == 7

    def test_T_zero(self, x3):
        assert reducible_count(x3, 0) == 1  # x^3 itself is reducible
        assert reducible_count(IntPoly((2, 0, 0, 1)), 0) == 0  # x^3 + 2 is not

    def test_sqrt_bound(self, x4):
        for T in (100, 1000):
            assert reducible_count(x4, T) <= 5 * math.sqrt(T)

    def test_matches_kronecker_oracle_small(self, x4):
        for T in (0, 30):
            oracle = [kronecker_irreducible([-a, 0, 0, 0, 1]) for a in range(-T, T + 1)]
            assert list(_irreducible_mask(x4.coeffs, T)) == [int(v) for v in oracle], T
            assert reducible_count(x4, T) == oracle.count(False), T

    @staticmethod
    def _x4x_sweep(T, N=10):
        # Every exhaustive count, average, covariance and theorem check of
        # one x^4 + x sweep over |a| <= T.
        x4x = IntPoly((0, 1, 0, 0, 1))
        reducible_count(x4x, T)
        for stat in ("cn", "dn", "bad"):
            ensemble_average(x4x, T, N, stat, sampling="exhaustive")
        for p, q in ((11, 13), (17, 19), (11, 31)):
            covariance_sigma(x4x, p, q, T)
        theorem_check(x4x, T, N, n_samples=8, override_window=True)

    @pytest.fixture
    def decisions(self, monkeypatch):
        """The shift of every irreducibility decision ensemble makes (every
        shift handed to ``irreducible_shifts``), starting from empty family
        caches."""
        calls = []
        decide = ensemble.irreducible_shifts
        monkeypatch.setattr(
            ensemble,
            "irreducible_shifts",
            lambda f0, lo, hi: calls.extend(range(lo, hi)) or decide(f0, lo, hi),
        )
        _verdict_record.cache_clear()
        polyring._disc_family.cache_clear()
        modroots._family_root_table.cache_clear()
        return calls

    def test_one_irreducibility_decision_per_shift(self, decisions):
        T = 60
        self._x4x_sweep(T)
        assert len(decisions) == 2 * T + 1

    def test_verdicts_grow_with_T(self, decisions, monkeypatch):
        # A larger T decides only the shifts it adds, and the family's
        # discriminants cost at most d = 4 subresultants in all.
        resultants = []
        resultant = polyring.resultant
        monkeypatch.setattr(
            polyring, "resultant", lambda f, g: resultants.append(f) or resultant(f, g)
        )
        self._x4x_sweep(60)
        self._x4x_sweep(80)
        assert len(decisions) == 2 * 80 + 1
        assert len(resultants) <= 4
        # Slices of the grown record: x^4 + x - a is reducible exactly when
        # a = n^4 + n for an integer n.
        reducible = {n**4 + n for n in range(-4, 4)}
        for T in (0, 7, 60, 80):
            expected = [int(a not in reducible) for a in range(-T, T + 1)]
            assert list(_irreducible_mask((0, 1, 0, 0, 1), T)) == expected, T
        assert len(decisions) == 2 * 80 + 1  # slicing decides nothing

    def test_x4_plus_x_over_the_bench_range(self):
        # x^4 + x - a is reducible exactly when a = n^4 + n for an integer n
        # (n = 0 and n = -1 both give a = 0).
        x4x = IntPoly((0, 1, 0, 0, 1))
        for T in (1000, 1107, 1200):
            reducible = {n**4 + n for n in range(-7, 7) if abs(n**4 + n) <= T}
            assert reducible_count(x4x, T) == len(reducible), T

    def test_negative_T_rejected(self, x4):
        with pytest.raises(ValueError):
            reducible_count(x4, -1)

    def test_monic_required(self):
        # Any family is counted now; 2x^2 still raises, as its shift a = 0
        # is not primitive.
        with pytest.raises(ValueError):
            reducible_count(IntPoly((0, 0, 2)), 10)

    def test_non_monic_matches_kronecker_oracle(self):
        # 2x^3 + x + 1, shift by shift against the oracle.
        f0, T = IntPoly((1, 1, 0, 2)), 300
        oracle = [kronecker_irreducible([1 - a, 1, 0, 2]) for a in range(-T, T + 1)]
        assert list(_irreducible_mask(f0.coeffs, T)) == [int(v) for v in oracle]
        assert reducible_count(f0, T) == oracle.count(False) > 0


class TestEnsembleAverage:
    def test_exhaustive_delta_matches_oracle(self, x3):
        with pytest.warns(UserWarning):
            stats, pairs = ensemble_average(
                x3, 50, 6, "delta", sampling="exhaustive", return_values=True
            )
        shifts = [a for a in range(-50, 51) if is_irreducible_over_Q(ShiftedPoly(x3, a).to_poly())]
        oracle_vals = {a: _delta_oracle(x3, a, 6) for a in shifts}
        assert stats.count_total == 101
        assert stats.count_irreducible == len(shifts) == 94
        assert stats.mean == pytest.approx(sum(oracle_vals.values()) / len(shifts), rel=1e-12)
        for a, v in pairs:
            assert v == pytest.approx(oracle_vals[a], rel=1e-12)
        assert stats.mean >= 0

    def test_cn_with_N1_is_zero(self, x3):
        stats = ensemble_average(x3, 50, 1, "cn", sampling="exhaustive")
        assert stats.mean == 0.0 and stats.variance == 0.0

    def test_normalization_uses_irreducible_count(self, x3):
        with pytest.warns(UserWarning):
            stats, pairs = ensemble_average(
                x3, 20, 4, "bad", sampling="exhaustive", return_values=True
            )
        assert stats.count_irreducible == len(pairs)
        assert stats.mean == pytest.approx(sum(v for _, v in pairs) / len(pairs))

    def test_markov_self_consistency(self, x3):
        stats, pairs = ensemble_average(
            x3, 60, 8, "bad", sampling="exhaustive", return_values=True
        )
        values = [v for _, v in pairs]
        n = len(values)
        if stats.mean > 0:
            for lam in (2, 5, 10):
                frac = sum(1 for v in values if v > lam * stats.mean) / n
                assert frac <= (1 / lam) * (1 + 1e-9)

    def test_random_sampling_deterministic(self, x3):
        kw = dict(seed=424242, n_samples=30, sampling="random")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s1 = ensemble_average(x3, 10**5, 50, "bad", **kw)
            s2 = ensemble_average(x3, 10**5, 50, "bad", **kw)
        assert s1.to_json() == s2.to_json()
        assert s1.sampling == "random"
        assert s1.count_irreducible == 30
        assert s1.count_total >= 30

    def test_random_sampling_draws_distinct_shifts(self, x3):
        # Fewer irreducible shifts than samples: drawing stops once all 11
        # shifts of [-5, 5] are drawn, each once, and the 8 irreducible
        # ones (all but the cubes 0 and +-1) are averaged.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats, pairs = ensemble_average(
                x3, 5, 4, "cn", sampling="random", n_samples=200, return_values=True
            )
        assert stats.count_total == 11
        assert stats.count_irreducible == 8
        assert [a for a, _ in pairs] == [-5, -4, -3, -2, 2, 3, 4, 5]

    def test_empty_ensemble(self):
        x6 = IntPoly((0, 0, 0, 0, 0, 0, 1))
        with pytest.raises(EmptyEnsembleError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ensemble_average(x6, 1, 5, "cn", sampling="exhaustive")

    def test_bad_statistic_name(self, x3):
        with pytest.raises(ValueError):
            ensemble_average(x3, 10, 5, "nonsense")

    @pytest.mark.parametrize("sampling", ["exhaustive", "random"])
    def test_loglratio_with_N1_is_rejected_first(self, x3, sampling, monkeypatch):
        # Its denominator (d - 1) N log N is 0 at N = 1; no shift is looked at.
        for name in ("_admitted", "_sample_shifts"):
            monkeypatch.setattr(ensemble, name, lambda *args: pytest.fail("shifts were drawn"))
        with pytest.raises(ValueError, match="need N >= 2 for loglratio, got 1"):
            ensemble_average(x3, 5, 1, "loglratio", sampling=sampling)

    def test_threads_agree_with_serial(self, x3):
        # Every statistic splits into one strided chunk per process.
        for stat in ("bad", "b2", "cn", "dn", "delta", "loglratio"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                serial = ensemble_average(x3, 40, 10, stat, sampling="exhaustive", threads=1)
                parallel = ensemble_average(x3, 40, 10, stat, sampling="exhaustive", threads=2)
            assert serial.to_json() == parallel.to_json(), stat

    def test_window_warning_emitted(self, x3):
        with pytest.warns(UserWarning, match="outside the admissible window"):
            ensemble_average(x3, 50, 40, "cn", sampling="exhaustive")

    def test_stats_json_schema(self, x3):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("polylcm.schemas").joinpath("ensemble_stats.schema.json").read_text()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = ensemble_average(x3, 30, 6, "delta", sampling="exhaustive")
        jsonschema.validate(json.loads(stats.to_json()), schema)


def _single_shift_value(f0, a, N, statistic):
    # One single-shift call per value, sharing no code with the batched columns.
    if statistic == "bad":
        return decomp.bad_N(f0, a, N).total
    if statistic == "b2":
        return decomp.bad_N(f0, a, N).b2
    if statistic == "delta":
        return decomp.delta_N(f0, a, N)
    if statistic == "cn":
        return decomp.c_N(f0, a, N)
    if statistic == "dn":
        return decomp.e_N_d_N(f0, a, N)[1]
    return decomp.decomposition_report(f0, a, N).log_L / ((f0.degree - 1) * N * math.log(N))


def _list_stats(f0, T, N, statistic, values):
    # The exhaustive report from Python lists: sums by a left-to-right loop,
    # squares by ** 2 and quantiles read from sorted().
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    total = 0.0
    for v in values:
        total += (v - mean) ** 2
    ordered = sorted(values)
    quantiles = []
    for q in QUANTILE_GRID:
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        quantiles.append((q, ordered[lo] * (1 - frac) + ordered[hi] * frac))
    return EnsembleStats(
        T=T, N=N, statistic_name=statistic, count_total=2 * T + 1, count_irreducible=n,
        mean=mean, variance=total / n, quantiles=quantiles, seed=DEFAULT_SEED,
        sampling="exhaustive", f0_coeffs=f0.coeffs,
    )


class TestMomentBits:
    # The moments are numpy reductions over float64 arrays that keep the bits
    # of the list formulas above.

    def test_float_power_squares_as_python_does(self):
        # The variance squares with np.float_power, which calls libm pow as
        # Python's d ** 2 does.  np.square (d * d, correctly rounded) and
        # np.power's SIMD loop round some of these squares differently.
        rng = np.random.default_rng(20190205)
        d = rng.standard_normal(10**5) * 10.0 ** rng.integers(-150, 150, 10**5)
        d[::2] *= -1
        assert np.float_power(d, 2.0).tolist() == [x**2 for x in d.tolist()]

    def test_variance_squares_as_python_does(self, x3, monkeypatch):
        # The values d and -d have mean 0.0 and variance d ** 2 exactly, so
        # the reported variance shows how the square was rounded; the picks
        # include the doubles whose d * d differs from d ** 2 on this libm.
        rng = np.random.default_rng(7)
        d = (rng.standard_normal(10**4) * 10.0 ** rng.integers(-150, 150, 10**4)).tolist()
        for x in [v for v in d if v * v != v**2][:5] + d[:5]:
            monkeypatch.setitem(
                ensemble._STATISTIC_CHUNKS, "cn", lambda f0, shifts, N, x=x: [x, -x]
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                stats = ensemble_average(x3, 10**5, 5, "cn", sampling="random", n_samples=2)
            assert stats.variance.hex() == (x**2).hex()

    @pytest.mark.parametrize("statistic", STATISTICS)
    @pytest.mark.parametrize(
        "f0, T, N", [(IntPoly((0, 1, 0, 0, 1)), 120, 12), (IntPoly((1, 1, 0, 2)), 60, 8)]
    )
    def test_exhaustive_json_equals_single_shift_lists(self, f0, T, N, statistic):
        shifts = [a for a in range(-T, T + 1) if is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly())]
        values = [_single_shift_value(f0, a, N, statistic) for a in shifts]
        want = _list_stats(f0, T, N, statistic, values).to_json()
        for threads in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                stats, pairs = ensemble_average(
                    f0, T, N, statistic, sampling="exhaustive", threads=threads,
                    return_values=True,
                )
            assert stats.to_json() == want, threads
            assert [a for a, _ in pairs] == shifts
            assert all(type(a) is int and type(v) is float for a, v in pairs)
            assert [v.hex() for _, v in pairs] == [v.hex() for v in values]


class TestWorkerErrors:
    # A worker process of _map_shifts hands its error back pickled.

    @pytest.mark.parametrize(
        "error",
        [
            ZeroValueError(2),
            ZeroValueError(3, "f_a(3) = 0 at a = 5"),
            DegenerateReductionError(7, 7),
            DegenerateReductionError(5, 5, "x^5 - x vanishes mod 5"),
        ],
    )
    def test_pickle_round_trip(self, error):
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert vars(back) == vars(error)

    def test_worker_error_comes_back_whole(self):
        # x^4 + x - 2 vanishes at n = 1, so the chunk [2] raises.
        x4x = IntPoly((0, 1, 0, 0, 1))
        cn_chunk = ensemble._STATISTIC_CHUNKS["cn"]
        with pytest.raises(ZeroValueError) as serial:
            cn_chunk(x4x, [2], 10)
        with pytest.raises(ZeroValueError) as worker:
            ensemble._map_shifts(cn_chunk, x4x, [2, 3], 10, threads=2)
        assert worker.value.n == serial.value.n == 1
        assert str(worker.value) == str(serial.value)


class TestCovarianceSigma:
    def test_distinct_primes_required(self, x3):
        with pytest.raises(ValueError):
            covariance_sigma(x3, 11, 11, 100)

    def test_primes_must_exceed_degree(self, x3):
        with pytest.raises(ValueError):
            covariance_sigma(x3, 3, 11, 100)

    @pytest.mark.parametrize("p, q", [(6, 35), (11, 35), (9, 13), (1, 11)])
    def test_composite_p_rejected(self, p, q):
        # (6, 35) used to return -0.128 from RootTable rows mod 6 and 35.
        x4x = IntPoly((0, 1, 0, 0, 1))
        with pytest.raises(ValueError, match="p must be prime"):
            covariance_sigma(x4x, p, q, 100)

    def test_primes_from_brute_force_limit_are_plain_counts(self):
        # 16411 and 16417 are the first primes above BRUTE_FORCE_LIMIT = 2^14,
        # whose rho rows are built for the call: each covariance of x^4 + x
        # equals the plain residue counts', over the same admitted shifts.
        x4x, T = IntPoly((0, 1, 0, 0, 1)), 40
        admitted = [a for a in range(-T, T + 1) if kronecker_irreducible([-a, 1, 0, 0, 1])]
        counts = {r: residue_counts(x4x.coeffs, r) for r in (5, 16411, 16417)}
        for p, q in ((16411, 5), (5, 16411), (16411, 16417)):
            products = [(counts[p][a % p] - 1) * (counts[q][a % q] - 1) for a in admitted]
            assert any(products), (p, q)
            assert covariance_sigma(x4x, p, q, T) == sum(products) / len(admitted), (p, q)

    def test_degenerate_T1_bounded(self, x3, x3_plus_2x):
        v = covariance_sigma(x3_plus_2x, 7, 13, 1)
        assert abs(v) <= (3 - 1) ** 2
        # every |a| <= 1 shift of x^3 is reducible
        with pytest.raises(EmptyEnsembleError):
            covariance_sigma(x3, 7, 13, 1)

    def test_full_period_unfiltered_cancels_exactly(self, x3):
        # sum over a complete residue system mod pq of sigma*sigma is 0
        assert covariance_sigma(x3, 5, 7, 52, include_reducible=True) == 0.0
        assert covariance_sigma(x3, 5, 7, 52 + 35, include_reducible=True) == 0.0

    def test_decay_with_T(self, x3):
        T = 2000
        v = covariance_sigma(x3, 7, 13, T)
        bound = COV_SIGMA_FACTOR * (math.sqrt(91) * math.log(91) / T + 1 / math.sqrt(T))
        assert abs(v) <= bound

    def test_sigma_identically_zero_when_cubing_bijects(self, x3):
        # 11 = 2 mod 3: x -> x^3 is a bijection mod 11, sigma(.;11) == 0
        assert covariance_sigma(x3, 11, 13, 500) == 0.0

    def test_one_table_build_per_family(self, monkeypatch):
        # Every covariance of a family reads its shared RootTable, so the
        # residues of each prime, p = 11 included, are computed once for
        # three calls; a rho row is one bincount of a prime's segment.
        x4x = IntPoly((0, 1, 0, 0, 1))
        builds = []
        runs = modroots._runs
        monkeypatch.setattr(
            modroots, "_runs", lambda primes: builds.extend(primes) or runs(primes)
        )
        modroots._family_root_table.cache_clear()
        for q in (13, 17, 31):
            covariance_sigma(x4x, 11, q, 200)
        assert builds == list(ntkernel.sieve_primes(max(builds))) and builds[-1] >= 31

    @pytest.mark.parametrize("include_reducible", [False, True])
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_per_shift_sigma_oracle(self, seed, include_reducible):
        # One modroots.sigma call per shift and prime, the admitted shifts
        # decided one by one: exactly the enumeration covariance_sigma gathers.
        rng = random.Random(seed)
        f0 = IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(3, 5))) + (1,))
        p, q = rng.sample((7, 11, 13, 17, 19, 23, 29, 31), 2)
        T = 150
        admitted = [
            a for a in range(-T, T + 1)
            if include_reducible or is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly())
        ]
        assert include_reducible or len(admitted) < 2 * T + 1
        products = (
            modroots.sigma(f0, a, p).sigma * modroots.sigma(f0, a, q).sigma for a in admitted
        )
        want = sum(products) / len(admitted)
        assert covariance_sigma(f0, p, q, T, include_reducible=include_reducible) == want


class TestColumnRecord:
    # cn, dn, bad and b2 over one window read one column record.
    X4X = IntPoly((0, 1, 0, 0, 1))

    def test_one_pass_per_window(self):
        # Every build of the record is a miss of its single-entry cache.
        decomp._column_record.cache_clear()
        for stat in ("cn", "dn", "bad", "b2"):
            ensemble_average(self.X4X, 300, 20, stat, sampling="exhaustive")
        assert decomp._column_record.cache_info().misses == 1
        decomp._column_record.cache_clear()
        ensemble_average(self.X4X, 300, 20, "cn", sampling="exhaustive")
        assert decomp._column_record.cache_info().misses == 1

    def test_columns_are_the_batched_statistics(self):
        # A batched statistic is _column_chunk bound to its column's name.
        batched = {
            name: chunk.args
            for name, chunk in ensemble._STATISTIC_CHUNKS.items()
            if isinstance(chunk, functools.partial) and chunk.func is ensemble._column_chunk
        }
        assert set(decomp.Columns._fields) == set(batched)
        assert all(args == (name,) for name, args in batched.items())

    def test_columns_are_read_only(self):
        # x^4 + x - a is irreducible at a = 3, 5, 7 (reducible only at n^4 + n).
        record = decomp._columns(self.X4X, [3, 5, 7], 20)
        for column in record:
            with pytest.raises(ValueError):
                column[0] = 1.0


class TestTermRows:
    # Below BRUTE_FORCE_LIMIT the record reads each prime's disc mask and
    # C_N and D_N terms at a mod p from the term rows kept per family
    # (RootTable.term_row).
    WINDOWS = ((1100, 50), (1000, 47), (1100, 50))
    FAMILIES = (IntPoly((0, 1, 0, 0, 1)), IntPoly((1, 1, 0, 2)))  # x^4 + x, 2x^3 + x + 1

    @pytest.mark.parametrize("f0", FAMILIES, ids=["monic", "non-monic"])
    def test_windows_equal_single_shift_terms(self, f0):
        # Rows built for one window are read again by the next ones.
        modroots._family_root_table.cache_clear()
        for T, N in self.WINDOWS:
            shifts = ensemble._admitted(f0, T)
            record = decomp._columns(f0, shifts, N)
            want = [(c_N(f0, a, N), e_N_d_N(f0, a, N)[1], *bad_N(f0, a, N)[::2])
                    for a in shifts.tolist()]
            got = zip(record.cn.tolist(), record.dn.tolist(), record.bad.tolist(),
                      record.b2.tolist())
            assert [[x.hex() for x in row] for row in got] == [
                [x.hex() for x in row] for row in want
            ], (f0, T, N)

    def test_one_build_per_family_and_prime(self, monkeypatch):
        # Each term-row build reads its prime's rho row once.
        builds = []
        rho_row = modroots.RootTable.rho_row
        monkeypatch.setattr(
            modroots.RootTable,
            "rho_row",
            lambda table, p: builds.append((table.f0.coeffs, p)) or rho_row(table, p),
        )
        modroots._family_root_table.cache_clear()
        decomp._column_record.cache_clear()
        for f0 in self.FAMILIES:
            for T, N in self.WINDOWS:
                for stat in ("cn", "dn", "bad", "b2"):
                    ensemble_average(f0, T, N, stat, sampling="exhaustive")
        want = [(f0.coeffs, p) for f0 in self.FAMILIES for p in ntkernel.sieve_primes(50)]
        assert builds == want

    def test_return_values_shifts_are_ints(self):
        f0 = self.FAMILIES[0]
        for T, kw in ((1100, {"sampling": "exhaustive"}),
                      (10**25, {"sampling": "random", "n_samples": 20})):
            for threads in (1, 2):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _, pairs = ensemble_average(
                        f0, T, 50, "cn", threads=threads, return_values=True, **kw
                    )
                assert all(type(a) is int for a, _ in pairs), (T, threads)

    def test_threads_give_the_same_json(self):
        f0 = self.FAMILIES[0]
        for stat in ("cn", "dn", "bad", "b2"):
            serial, parallel = (
                ensemble_average(f0, 1100, 50, stat, sampling="exhaustive", threads=threads)
                for threads in (1, 2)
            )
            assert serial.to_json() == parallel.to_json(), stat


class TestWindowBudget:
    # An exhaustive window holds a byte or an int64 per shift of [-T, T]: its
    # 2T + 1 shifts are held to ntkernel.SIEVE_LIMIT_MAX before any is.
    X4X = IntPoly((0, 1, 0, 0, 1))

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(ntkernel, "SIEVE_LIMIT_MAX", 101)

    def test_over_budget_raises_first(self, x3):
        calls = {
            "reducible_count": lambda: reducible_count(self.X4X, 51),
            "ensemble_average": lambda: ensemble_average(x3, 51, 10, "cn", sampling="exhaustive"),
            "covariance_sigma": lambda: covariance_sigma(x3, 5, 7, 51),
            "covariance_sigma(include_reducible)": lambda: covariance_sigma(
                x3, 5, 7, 51, include_reducible=True
            ),
            "theorem_check": lambda: theorem_check(x3, 51, 10),
        }
        message = re.escape("2T + 1 = 103 shifts exceed budget 101")
        for name, call in calls.items():
            with pytest.raises(ResourceLimitError, match=message) as err:
                call()
            assert err.traceback[-1].name == "_check_window", name

    def test_at_budget_runs(self, x3):
        assert reducible_count(self.X4X, 50) == 4  # a = n^4 + n = 0, 2, 14, 18
        assert ensemble_average(x3, 50, 10, "cn", sampling="exhaustive").count_total == 101


class TestMeanRho:
    def test_x2_plus_1_at_100(self, x2_plus_1):
        assert mean_rho(x2_plus_1, 100) == pytest.approx(23 / 25)

    def test_first_prime_only(self, x2_plus_1):
        # pi(2) = 1, so the mean is rho_f(2) exactly
        assert mean_rho(x2_plus_1, 2) == 1.0

    def test_reducible_rejected(self, x3):
        with pytest.raises(ValueError):
            mean_rho(x3, 100)

    def test_x_below_two_rejected(self, x2_plus_1):
        with pytest.raises(ValueError, match="x must be >= 2"):
            mean_rho(x2_plus_1, 1)


class TestWindowAndTheorem:
    def test_window_arithmetic(self):
        win = WindowSpec(200000, 2000, 3)
        assert win.lower == pytest.approx(447.2135954999579)
        assert win.holds
        assert win.upper > 2000
        assert not WindowSpec(200000, 400, 3).holds
        assert not WindowSpec(200000, 20000, 3).holds

    def test_window_violation_raises(self, x3):
        with pytest.raises(WindowViolationError):
            theorem_check(x3, 10**5, 10, n_samples=5)

    def test_override_window(self, x3):
        rep = theorem_check(x3, 10**5, 100, n_samples=5, seed=3, override_window=True)
        assert not rep.window_holds
        assert rep.n_shifts == 5

    def test_epsilon_infinite_gives_fraction_one(self, x3):
        rep = theorem_check(x3, 400, 25, n_samples=8, seed=1, epsilon=math.inf)
        assert rep.fraction_ratio_within_epsilon == 1.0

    def test_ratios_positive_and_json_schema(self, x3):
        import jsonschema
        from importlib import resources

        rep = theorem_check(x3, 400, 25, n_samples=8, seed=1)
        assert 0 < rep.median_ratio < 2
        schema = json.loads(
            resources.files("polylcm.schemas").joinpath("theorem_report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(rep.to_json()), schema)

    def test_theorem_deterministic(self, x3):
        r1 = theorem_check(x3, 400, 25, n_samples=8, seed=11)
        r2 = theorem_check(x3, 400, 25, n_samples=8, seed=11)
        assert r1.to_json() == r2.to_json()

    def test_threads_agree_with_serial(self, x3):
        serial = theorem_check(x3, 400, 25, n_samples=8, seed=11, threads=1)
        parallel = theorem_check(x3, 400, 25, n_samples=8, seed=11, threads=2)
        assert parallel.to_json() == serial.to_json()

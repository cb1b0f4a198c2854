"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with -s to see them live).

Criteria 6-8 share one seeded ensemble; criterion 11 re-runs them and
demands byte-identical JSON.
"""

import importlib
import json
import math
import pkgutil
import random
import time

import pytest

import polylcm
from polylcm import (
    alpha_approx_residual,
    build_ledgers,
    covariance_sigma,
    decomposition_report,
    discriminant,
    ensemble_average,
    is_irreducible_over_Q,
    lcm_bigint,
    mean_rho,
    mertens_sum,
    reducible_count,
    theorem_check,
    weil_sum,
)
from polylcm.constants import (
    AVG_BAD_FACTOR,
    AVG_DELTA_FACTOR,
    COV_SIGMA_FACTOR,
    DIVISOR_LOGSUM_OFFSET,
    DIVISOR_LOGSUM_SLOPE,
    MERTENS_BAND,
    REDUCIBLE_SQRT_FACTOR,
    VAR_CN_FACTOR,
)
from polylcm.decomp import _column_record
from polylcm.ensemble import _verdict_record
from polylcm.errors import ZeroValueError
from polylcm.modroots import _family_root_table
from polylcm.ntkernel import _prime_array, divisor_logsum, divisor_logsum_table
from polylcm.polyring import IntPoly, ShiftedPoly, _disc_family, _family_pattern_rows
from polylcm.valengine import _abs_values

from oracles import kronecker_irreducible, lcm_chain

SEED = 20260809
T_ENSEMBLE = 200_000
N_ENSEMBLE = 2000
N_SAMPLES = 200

X3 = IntPoly((0, 0, 0, 1))
X3_2X = IntPoly((0, 2, 0, 1))
X4 = IntPoly((0, 0, 0, 0, 1))

COV_PAIRS = ((11, 13), (17, 19), (11, 31))

# Every cache in the package; criterion 11 clears each before it reruns.
PACKAGE_CACHES = (
    _prime_array,
    _verdict_record,
    _disc_family,
    _family_pattern_rows,
    _family_root_table,
    _column_record,
)


def check(name, ok, detail="", elapsed=None, budget=None):
    tag = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{tag}] {name}: {detail}{timing}")
    assert ok, f"{name}: {detail}"
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


@pytest.fixture(scope="module")
def crit6_stats():
    out = {}
    for stat in ("bad", "delta", "cn"):
        stats, pairs = ensemble_average(
            X3, T_ENSEMBLE, N_ENSEMBLE, stat,
            seed=SEED, n_samples=N_SAMPLES, return_values=True,
        )
        out[stat] = (stats, pairs)
    return out


@pytest.fixture(scope="module")
def crit7_reports():
    rep2000 = theorem_check(X3, T_ENSEMBLE, N_ENSEMBLE, n_samples=N_SAMPLES, seed=SEED)
    rep500 = theorem_check(X3, T_ENSEMBLE, 500, n_samples=N_SAMPLES, seed=SEED)
    return rep2000, rep500


@pytest.fixture(scope="module")
def crit8_json():
    values = {
        f"{p},{q}": covariance_sigma(X3, p, q, 10**5) for p, q in COV_PAIRS
    }
    return json.dumps(values, sort_keys=True)


def test_criterion_01_engine_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    done = 0
    while done < 30:
        d = rng.choice((3, 4, 5))
        f0 = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (1,))
        a = rng.randint(-100, 100)
        fa = ShiftedPoly(f0, a)
        if not is_irreducible_over_Q(fa.to_poly()):
            continue
        N = rng.randint(10, 1000)
        led = build_ledgers(fa, N)[1]
        L = lcm_bigint(fa, N)
        assert led.product() == L, (f0, a, N)
        done += 1
    elapsed = time.perf_counter() - t0
    check("criterion 1 (engine equivalence)", True,
          "30 random ledger products == lcm tree bit-for-bit",
          elapsed, 120)


def test_criterion_02_decomposition_identity():
    t0 = time.perf_counter()
    N = 500
    worst = 0.0
    count = 0
    spot = []
    for a in range(-30, 31):
        fa = ShiftedPoly(X3_2X, a)
        if not is_irreducible_over_Q(fa.to_poly()):
            continue
        rep = decomposition_report(X3_2X, a, N)
        gap = rep.identity_gap()
        tol = 1e-6 * max(1.0, abs(rep.log_L))
        assert gap <= tol, (a, gap, tol)
        worst = max(worst, gap / tol)
        count += 1
        if a in (-17, 5, 23):
            spot.append((a, rep.log_L))
    # spot-check log_L against the independent gcd-chain oracle
    for a, log_l in spot:
        L = lcm_chain([X3_2X(n) - a for n in range(1, N + 1)])
        assert abs(log_l - math.log(L)) <= 1e-9 * math.log(L)
    elapsed = time.perf_counter() - t0
    check("criterion 2 (decomposition identity)", True,
          f"{count} irreducible shifts at N=500, worst gap {worst:.2e} of tolerance",
          elapsed, 300)


def test_criterion_03_weil_bound_zero_tolerance():
    t0 = time.perf_counter()
    from polylcm.ntkernel import sieve_primes

    polys = (X3, X3_2X, IntPoly((0, -3, 0, 1)), IntPoly((0, 1, 0, 0, 1)),
             IntPoly((1, 1, 0, 0, 0, 1)))
    checked = 0
    for f0 in polys:
        d = f0.degree
        bound_factor = d - 1
        for p in sieve_primes(199):
            if p <= d:
                continue
            bound = bound_factor * math.sqrt(p)
            for b in range(1, p):
                assert abs(weil_sum(f0, b, p)) <= bound, (f0, b, p)
                checked += 1
    elapsed = time.perf_counter() - t0
    check("criterion 3 (Weil bound)", True,
          f"{checked} sums, zero violations of (d-1)sqrt(p)", elapsed, 60)


def test_criterion_04_hensel_alpha_residual():
    """Residual bound at every p <= N, p not | D(a), for the shifts of x^3
    with no vanishing value; at a shift where f_a(n) = n^3 - a = 0 for some
    n <= N, alpha_p is undefined and the required outcome is ZeroValueError
    naming the first such n (x^3 - 1 has the root 1)."""
    t0 = time.perf_counter()
    from polylcm.ntkernel import sieve_primes

    N = 10**4
    d = X3.degree
    bounded = refused = 0
    for a in (1, 2, 5):
        f = ShiftedPoly(X3, a)
        D = discriminant(f.to_poly())
        primes = [p for p in sieve_primes(N) if D % p != 0]
        zeros = [n for n in range(1, N + 1) if n**3 == a]
        if zeros:
            with pytest.raises(ZeroValueError) as exc:
                _abs_values(f, N)
            assert exc.value.n == zeros[0], (a, exc.value.n)
            for p in primes:
                with pytest.raises(ZeroValueError) as exc:
                    alpha_approx_residual(f, N, p)
                assert exc.value.n == zeros[0], (a, p, exc.value.n)
                refused += 1
            continue
        maxval = max(_abs_values(f, N))
        for p in primes:
            res = alpha_approx_residual(f, N, p)
            bound = d * (math.log(maxval) / math.log(p) + 2)
            assert abs(res) <= bound, (a, p, res, bound)
            bounded += 1
    elapsed = time.perf_counter() - t0
    check("criterion 4 (Hensel/alpha residual)", bounded > 0 and refused > 0,
          f"{bounded} (a, p) pairs within d*(log_p max|f|+2); "
          f"{refused} (a, p) pairs refused with ZeroValueError at a vanishing f_a(n)",
          elapsed, 120)


def test_criterion_05_mertens_and_divisor_logsum():
    t0 = time.perf_counter()
    for e in range(1, 7):
        N = 10**e
        assert abs(mertens_sum(N) - math.log(N)) <= MERTENS_BAND, N
    table = divisor_logsum_table(10**6)
    import numpy as np

    ks = np.arange(3, 10**6 + 1)
    bound = DIVISOR_LOGSUM_SLOPE * np.log(np.log(ks)) + DIVISOR_LOGSUM_OFFSET
    violations = int(np.count_nonzero(table[3:] > bound))
    assert violations == 0
    # the sieve table must agree with the per-k operation
    rng = random.Random(SEED)
    for _ in range(200):
        k = rng.randrange(3, 10**6)
        assert abs(table[k] - divisor_logsum(k)) < 1e-9
    elapsed = time.perf_counter() - t0
    check("criterion 5 (Mertens / divisor logsum)", True,
          "bands hold for N in 10..1e6 and all k in [3, 1e6]", elapsed, 60)


def test_criterion_06_averaged_bounds(crit6_stats):
    t0 = time.perf_counter()
    lnln = math.log(math.log(N_ENSEMBLE))
    bad_mean = crit6_stats["bad"][0].mean
    delta_mean = crit6_stats["delta"][0].mean
    cn_pairs = crit6_stats["cn"][1]
    msd = sum((v - math.log(N_ENSEMBLE)) ** 2 for _, v in cn_pairs) / len(cn_pairs)
    bad_bound = AVG_BAD_FACTOR * N_ENSEMBLE * lnln
    delta_bound = AVG_DELTA_FACTOR * N_ENSEMBLE * lnln
    cn_bound = VAR_CN_FACTOR * lnln**2
    ok = bad_mean <= bad_bound and delta_mean <= delta_bound and msd <= cn_bound
    elapsed = time.perf_counter() - t0
    check("criterion 6 (averaged bounds)", ok,
          f"<Bad>={bad_mean:.0f}<={bad_bound:.0f}, <Delta>={delta_mean:.0f}<={delta_bound:.0f}, "
          f"<|C_N-lnN|^2>={msd:.2f}<={cn_bound:.2f}", elapsed, 900)


def test_criterion_07_theorem_desk_scale(crit7_reports):
    rep2000, rep500 = crit7_reports
    ok_window = rep2000.window_holds and rep2000.window_lower < 2000 < rep2000.window_upper
    ok_band = 0.55 <= rep2000.median_ratio <= 1.05
    ok_direction = rep2000.median_ratio > rep500.median_ratio
    ok = ok_window and ok_band and ok_direction
    check("criterion 7 (growth-rate surrogate)", ok,
          f"window ({rep2000.window_lower:.0f}, {rep2000.window_upper:.0f}) holds, "
          f"median@2000={rep2000.median_ratio:.4f} in [0.55,1.05], "
          f"median@500={rep500.median_ratio:.4f} (increasing)")


def test_criterion_08_covariance(crit8_json):
    t0 = time.perf_counter()
    values = json.loads(crit8_json)
    T = 10**5
    detail = []
    ok = True
    for p, q in COV_PAIRS:
        v = values[f"{p},{q}"]
        bound = COV_SIGMA_FACTOR * (math.sqrt(p * q) * math.log(p * q) / T + 1 / math.sqrt(T))
        ok = ok and abs(v) <= bound
        detail.append(f"|cov({p},{q})|={abs(v):.4f}<={bound:.4f}")
    elapsed = time.perf_counter() - t0
    check("criterion 8 (sigma covariance)", ok, ", ".join(detail), elapsed, 120)


def test_criterion_09_reducible_count():
    t0 = time.perf_counter()
    counts = {}
    for T in (100, 1000, 10_000):
        c = reducible_count(X4, T)
        counts[T] = c
        assert c <= REDUCIBLE_SQRT_FACTOR * math.sqrt(T), (T, c)
    oracle_100 = sum(
        0 if kronecker_irreducible([-a, 0, 0, 0, 1]) else 1 for a in range(-100, 101)
    )
    assert counts[100] == oracle_100 == 13
    elapsed = time.perf_counter() - t0
    check("criterion 9 (reducible shifts)", True,
          f"counts {counts} within 5*sqrt(T); T=100 equals oracle (13)", elapsed, 120)


def test_criterion_10_nagell_mean_value():
    t0 = time.perf_counter()
    m = mean_rho(IntPoly((-2, 0, 0, 1)), 10**5)
    ok = 0.85 <= m <= 1.15
    elapsed = time.perf_counter() - t0
    check("criterion 10 (Nagell mean value)", ok,
          f"mean rho(x^3-2) over p<=1e5 is {m:.4f}", elapsed, 60)


def test_criterion_11_determinism(crit6_stats, crit7_reports, crit8_json):
    t0 = time.perf_counter()
    # A rerun decides every shift's irreducibility, interpolates every
    # family discriminant and builds every root table again, not from the
    # caches.
    for cache in PACKAGE_CACHES:
        cache.cache_clear()
    for stat in ("bad", "delta", "cn"):
        again = ensemble_average(
            X3, T_ENSEMBLE, N_ENSEMBLE, stat,
            seed=SEED, n_samples=N_SAMPLES,
        )
        assert again.to_json() == crit6_stats[stat][0].to_json(), stat
    rep2000, rep500 = crit7_reports
    again2000 = theorem_check(X3, T_ENSEMBLE, N_ENSEMBLE, n_samples=N_SAMPLES, seed=SEED)
    again500 = theorem_check(X3, T_ENSEMBLE, 500, n_samples=N_SAMPLES, seed=SEED)
    assert again2000.to_json() == rep2000.to_json()
    assert again500.to_json() == rep500.to_json()
    cov_again = json.dumps(
        {f"{p},{q}": covariance_sigma(X3, p, q, 10**5) for p, q in COV_PAIRS},
        sort_keys=True,
    )
    assert cov_again == crit8_json
    elapsed = time.perf_counter() - t0
    check("criterion 11 (determinism)", True,
          "criteria 6-8 reruns byte-identical", elapsed)


def test_criterion_11_clears_every_package_cache():
    # A cache that criterion 11 does not clear would turn its rerun into a
    # cache read, so every lru_cache in polylcm must be in PACKAGE_CACHES.
    found = set()
    for info in pkgutil.iter_modules(polylcm.__path__, "polylcm."):
        module = importlib.import_module(info.name)
        scopes = [vars(module)] + [
            vars(obj) for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for scope in scopes:
            found.update(
                f"{obj.__module__}.{obj.__qualname__}"
                for obj in scope.values()
                if hasattr(obj, "cache_clear")
            )
    assert found == {f"{c.__module__}.{c.__qualname__}" for c in PACKAGE_CACHES}

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from polylcm import cli, decomp, modroots, ntkernel, polyring, valengine
from polylcm.constants import CN_SPLIT_GAP, EN_OFFSET, EN_SLOPE
from polylcm.decomp import (
    CROSS_CHECK_LIMIT,
    CSV_HEADER,
    _disc_primes,
    bad_N,
    c_N,
    decomposition_report,
    delta_N,
    e_N_d_N,
    lcm_bigint,
)
from polylcm.ensemble import ensemble_average
from polylcm.errors import (
    InternalConsistencyError,
    IrreducibilityRequiredError,
    ResourceLimitError,
    ZeroValueError,
)
from polylcm.ntkernel import mertens_sum
from polylcm.polyring import IntPoly, ShiftedPoly, discriminant, is_irreducible_over_Q
from polylcm.valengine import build_ledgers

from oracles import (
    alpha_direct,
    delta_pairwise,
    delta_quotient,
    disc_via_sylvester,
    eval_poly,
    lcm_chain,
    lcm_tree,
    shared_cofactors,
    trial_factor,
    trial_primes,
)
from prime_maps import prime_map


def _random_irreducible_shift(rng, dmin=3, dmax=5, span=9, amax=100):
    while True:
        d = rng.randint(dmin, dmax)
        f0 = IntPoly(tuple(rng.randint(-span, span) for _ in range(d)) + (1,))
        a = rng.randint(-amax, amax)
        fa = ShiftedPoly(f0, a)
        if is_irreducible_over_Q(fa.to_poly()):
            return fa


def _count_value_passes(monkeypatch):
    # Lists filled by decomposition_report: the length of each engine value
    # pass, and the N of each lcm_bigint call.  No value may be evaluated
    # one n at a time.
    passes, lcm_calls = [], []
    horner, lcm = valengine._horner_values, decomp.lcm_bigint
    monkeypatch.setattr(
        valengine, "_horner_values", lambda c, N, t: passes.append(N) or horner(c, N, t)
    )
    monkeypatch.setattr(decomp, "lcm_bigint", lambda f, N: lcm_calls.append(N) or lcm(f, N))
    monkeypatch.setattr(ShiftedPoly, "__call__", lambda f, n: pytest.fail("per-n evaluation"))
    return passes, lcm_calls


class TestLcmEngines:
    def test_bigint_examples(self, x3):
        assert lcm_bigint(ShiftedPoly(x3, -1), 3) == 252
        assert lcm_bigint(ShiftedPoly(x3, 2), 3) == 150
        assert lcm_bigint(ShiftedPoly(x3, 2), 1) == 1
        assert lcm_bigint(ShiftedPoly(x3, -1), 1) == 2

    def test_ledger_examples(self, x3):
        led = build_ledgers(ShiftedPoly(x3, -1), 3)[1]
        assert prime_map(led) == {2: 2, 3: 2, 7: 1}
        assert led.product() == 252
        led6 = build_ledgers(ShiftedPoly(x3, -1), 6)[1]
        assert prime_map(led6)[7] == 1

    def test_engine_equivalence_random(self):
        rng = random.Random(60062)
        for _ in range(10):
            f = _random_irreducible_shift(rng)
            N = rng.randint(5, 400)
            led = build_ledgers(f, N)[1]
            L = lcm_bigint(f, N)
            assert led.product() == L
            assert L == lcm_chain([f(n) for n in range(1, N + 1)])

    def test_monotone_in_N(self, x3):
        f = ShiftedPoly(x3, 5)
        prev = {}
        for N in range(1, 40):
            led = prime_map(build_ledgers(f, N)[1])
            for p, e in prev.items():
                assert led.get(p, 0) >= e
            prev = led

    def test_zero_value(self, x3):
        with pytest.raises(ZeroValueError):
            lcm_bigint(ShiftedPoly(x3, 27), 5)

    def test_tree_equals_chain_oracle(self, x3, x3_plus_2x):
        # N = 3, 7 and 300 leave an odd element over on some tree layer
        for f in (ShiftedPoly(x3, 2), ShiftedPoly(x3, -17), ShiftedPoly(x3_plus_2x, 9)):
            for N in (1, 2, 3, 7, 300):
                assert lcm_bigint(f, N) == lcm_chain([f(n) for n in range(1, N + 1)]), (f, N)

    def test_running_sums_equal_chain_oracle(self):
        # Degree 1-8 families, non-monic and negative-lead ones included, at
        # N = 1 .. d + 2 and 60 (below, at and past the d + 1 Horner values
        # the running sums start from): the chain lcm of directly evaluated
        # values, and ZeroValueError at the first zero, as a Horner loop over
        # every n finds it.  A shift taken at f0(k) plants a zero at n = k.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=120, derandomize=True, deadline=None)
        @hypothesis.given(
            low=st.lists(st.integers(-40, 40), min_size=1, max_size=8),
            lead=st.integers(-6, 6).filter(bool),
            a=st.integers(-(10**6), 10**6),
            zero_at=st.one_of(st.none(), st.integers(1, 60)),
        )
        def check(low, lead, a, zero_at):
            coeffs = [*low, lead]
            if zero_at is not None:
                a = eval_poly(coeffs, zero_at)
            f = ShiftedPoly(IntPoly(tuple(coeffs)), a)
            for N in (*range(1, len(coeffs) + 2), 60):
                values = [eval_poly(coeffs, n) - a for n in range(1, N + 1)]
                if 0 in values:
                    with pytest.raises(ZeroValueError) as err:
                        lcm_bigint(f, N)
                    assert err.value.n == values.index(0) + 1
                else:
                    assert lcm_bigint(f, N) == lcm_chain(values), (coeffs, a, N)

        check()


class TestHotPath:
    def test_report_factors_only_shared_cofactors(self, x3, monkeypatch):
        N = 600
        for a in (2, -7, 12345):
            big = [c for c in build_ledgers(ShiftedPoly(x3, a), N)[2] if c > 1]
            shared = [c for c, s in zip(big, shared_cofactors(big)) if s]
            calls = []
            factor = ntkernel.factor
            monkeypatch.setattr(ntkernel, "factor", lambda m: calls.append(m) or factor(m))
            decomposition_report(x3, a, N)
            monkeypatch.undo()
            # the binomial irreducibility test factors the degree, d = 3
            assert calls.count(3) <= 1
            pieces = [m for m in calls if m != 3]
            for m in pieces:
                primes = trial_factor(m)
                assert primes != [(m, 1)], (a, m)  # composite
                assert min(q for q, _ in primes) > N, (a, m)
                assert any(c % m == 0 for c in shared), (a, m)
            assert len(pieces) < len(shared) / 10, (a, len(pieces), len(shared))
            assert len(shared) < len(big) // 4

    def test_log_L_above_limit_leaves_unshared_cofactors_unfactored(self, x3, monkeypatch):
        N, a = CROSS_CHECK_LIMIT + 500, 2
        f = ShiftedPoly(x3, a)
        unshared = set(build_ledgers(f, N)[0].rest)
        calls = []
        factor = ntkernel.factor
        monkeypatch.setattr(ntkernel, "factor", lambda m: calls.append(m) or factor(m))
        passes, lcm_calls = _count_value_passes(monkeypatch)
        rep = decomposition_report(x3, a, N)
        monkeypatch.undo()
        assert unshared and not unshared & set(calls)
        # one value pass, no lcm engine above the limit
        assert passes == [N] and lcm_calls == []
        L = lcm_chain([n**3 - a for n in range(1, N + 1)])
        assert rep.log_L == pytest.approx(math.log(L), rel=1e-12)

    def test_disc_primes_equal_factored_primes(self):
        rng = random.Random(5150)
        cases = [(1, 50), (-1, 50), (-27 * 4, 1), (2 * 3 * 5 * 7 * 2003, 2003), (-(2**61 - 1), 100)]
        for _ in range(200):
            D = rng.choice((1, -1)) * rng.randint(2, 10**12)
            cases.append((D, rng.randint(1, 3000)))
        for D, N in cases:
            expected = [p for p in ntkernel.factor(D).primes() if p <= N]
            assert _disc_primes(D, N) == expected, (D, N)
        with pytest.raises(ValueError):
            _disc_primes(0, 10)


class TestBadN:
    def test_example(self, x3):
        res = bad_N(x3, 2, 5)
        assert abs(res.total - (2 * math.log(2) + 2 * math.log(3))) < 1e-12
        assert res.b1 == pytest.approx(res.total)
        assert res.b2 == 0.0

    def test_unit_discriminant_gives_zero(self):
        # disc(x^2 + x - a) = 1 + 4a; a = 0 -> disc 1, no bad primes
        f0 = IntPoly((0, 1, 1))
        assert bad_N(f0, 0, 100).total == 0.0

    def test_split_sums_to_total(self, x3):
        rng = random.Random(1999)
        for _ in range(20):
            a = rng.randint(-60, 60)
            if a == 0 or round(abs(a) ** (1 / 3)) ** 3 == abs(a):
                continue
            res = bad_N(x3, a, 200)
            assert res.b1 + res.b2 == pytest.approx(res.total, rel=1e-12)
            assert res.total >= 0 and res.b1 >= 0 and res.b2 >= 0

    def test_zero_disc_rejected(self, x3):
        with pytest.raises(ValueError):
            bad_N(x3, 0, 10)

    def test_zero_value_raises_without_disc_prime(self):
        # (x - 1)(x^2 - x - 1) vanishes at 1; at N = 1 there is no prime <= N
        f0 = IntPoly((1, 0, -2, 1))
        with pytest.raises(ZeroValueError) as exc:
            bad_N(f0, 0, 1)
        assert exc.value.n == 1


class TestDeltaN:
    def test_examples(self, x3):
        assert delta_N(x3, -1, 6) == pytest.approx(2 * math.log(7))
        assert delta_N(x3, -2, 6) == 0.0
        assert delta_N(x3, -1, 1) == 0.0

    def test_nonnegative(self, x3):
        rng = random.Random(321)
        for _ in range(15):
            a = rng.randint(-50, 50)
            if round(abs(a) ** (1 / 3)) ** 3 == abs(a):
                continue
            assert delta_N(x3, a, rng.randint(2, 200)) >= 0.0


class TestCNAndSplit:
    def test_examples(self, x3):
        assert c_N(x3, 2, 5) == pytest.approx(math.log(5) / 4)
        assert c_N(x3, 2, 1) == 0.0

    def test_e_d_examples(self, x3):
        en, dn = e_N_d_N(x3, 2, 5)
        assert en == pytest.approx(math.log(2) / 2 + math.log(3) / 3)
        assert dn == 0.0

    def test_unit_disc_e_is_zero(self):
        f0 = IntPoly((0, 1, 1))
        en, _ = e_N_d_N(f0, 0, 50)
        assert en == 0.0

    def test_zero_disc_rejected(self, x3):
        for term in (c_N, e_N_d_N):
            with pytest.raises(ValueError, match="discriminant is zero"):
                term(x3, 0, 10)

    def test_zero_value_raises(self, x3):
        # x^3 - 8 vanishes at 2; x(x - 3)(x - 5) has f(0) = 0, so every n is
        # evaluated, and its first zero n >= 1 is 3.
        x_3_5 = IntPoly((0, 15, -8, 1))
        for f0, a, N, n in ((x3, 8, 30, 2), (x_3_5, 0, 10, 3)):
            for term in (c_N, e_N_d_N):
                with pytest.raises(ZeroValueError) as exc:
                    term(f0, a, N)
                assert exc.value.n == n
        assert c_N(x_3_5, 0, 2) >= 0.0  # its zeros lie above N = 2

    def test_split_identity_within_gap(self, x3_plus_2x):
        # c_N = mertens - E_N + D_N + O(1), gap <= CN_SPLIT_GAP
        ms = mertens_sum(300)
        for a in range(-25, 26):
            fa = ShiftedPoly(x3_plus_2x, a)
            if not is_irreducible_over_Q(fa.to_poly()):
                continue
            cn = c_N(x3_plus_2x, a, 300)
            en, dn = e_N_d_N(x3_plus_2x, a, 300)
            assert abs(cn - (ms - en + dn)) <= CN_SPLIT_GAP

    def test_e_n_loglog_disc_bound(self, x3):
        for a in range(-40, 41):
            fa = ShiftedPoly(x3, a)
            if not is_irreducible_over_Q(fa.to_poly()):
                continue
            D = abs(discriminant(fa))
            if D < 3:
                continue
            en, _ = e_N_d_N(x3, a, 500)
            assert en <= EN_SLOPE * math.log(math.log(D)) + EN_OFFSET


class TestDeltaOracle:
    # (f0, a, N, q): q > N is a prime with q^2 | f_a(n) for some n <= N
    CASES = [
        ((0, 0, 0, 1), 2, 300, None),
        ((0, 0, 0, 1), -16128, 120, 127),  # f(1) = 127^2
        ((1, 1, 0, 2), 5, 250, None),  # non-monic
        ((1, 1, 0, 2), -16125, 120, 127),
        ((7, 3, 0, -1), -4, 200, None),  # negative leading coefficient
        ((7, 3, 0, -1), -16232, 120, 127),
        ((0, 1, 0, 0, 1), 3, 150, None),
        ((0, 1, 0, 0, 1), -16045, 120, 127),
    ]

    @pytest.mark.parametrize("coeffs, a, N, q", CASES)
    def test_delta_matches_pairwise_gcd_oracle(self, coeffs, a, N, q):
        if q is not None:
            assert q > N and any((eval_poly(coeffs, n) - a) % (q * q) == 0 for n in range(1, N + 1))
        expected = delta_pairwise(coeffs, a, N)
        f0 = IntPoly(coeffs)
        assert expected > 0
        assert decomposition_report(f0, a, N).delta == pytest.approx(expected, rel=1e-12)
        assert delta_N(f0, a, N) == pytest.approx(expected, rel=1e-12)


class TestFrozenOutputs:
    # SHA-256 of to_json(): a change to any exact integer or float bit of
    # these reports fails tier-1, not only the benchmark's digest.
    CASES = [
        ((0, 0, 0, 1), 2, 2000,
         "1fab8b23fdc4403a1f549ab6725227ad5701f7dee4bff1d83d4ba29005de5f99"),
        ((0, 0, 0, 1), -151515, 2000,
         "58b3f30f01cb68776420881a32d4336434356a96f644f82ca6c3de31905d3b67"),
        ((0, 0, 0, 1), 98765, 2000,
         "9af40c006b9bd7acc43c0c29a7013f9c2ef65acd8da376e048cfcff62d86691d"),
        ((7, 1, -3, 0, 0, 1), 12, 700,
         "4e6363d63aefc22397b375bc44ac221493ab13548b158407878d8842258a211b"),
        # Values past int64 (400 * 600**6 > 2**63): the object path.
        ((5, -2, 0, 7, 0, 1, 400), 3, 600,
         "c2898b2c21be33f8a5425813ac204f6acf19a5e8d1759856a899d6af337b2d67"),
        # A composite shared g = 601 * 691 goes to factor.
        ((0, 0, 0, 1), 2, 300,
         "a7b8eacb3b4f37c3cc7ec0bb1952ce33adbfbe101bd680150d845e509129f62c"),
    ]

    @pytest.mark.parametrize(
        "coeffs, a, N, digest",
        CASES,
        ids=["x3-a2", "x3-a-151515", "x3-a98765", "deg5-a12", "deg6-a3-object", "x3-a2-N300"],
    )
    def test_report_digest(self, coeffs, a, N, digest):
        rep = decomposition_report(IntPoly(coeffs), a, N)
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    # The exact bytes `decompose --format csv` writes for the x3-a2 case.
    CSV_X3_A2 = (
        "a,N,log_L,log_P,bad,b1,b2,delta,c_N,e_N,d_N,residual,irreducible\n"
        "2,2000,28442.069512679485,39619.1276641422,1425.9215771015745,1425.9215771015745,"
        "0.0,875.3905811286955,5.125109077808687,0.7127776865026759,-0.6144528943884773,"
        "-4611.814930725366,1\n"
    )

    def test_report_csv_bytes(self, capsys):
        argv = ["decompose", "--f0", "0,0,0,1", "--a", "2", "--N", "2000", "--format", "csv"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == self.CSV_X3_A2

    # ensemble_average(...).to_json() of the batched statistics, pinned from
    # the per-shift loops they replaced: x^3 at random (T = 2e5, N = 300,
    # 50 samples, default seed) and x^4 + x exhaustive (T = 1100, N = 50).
    # The non-monic families were pinned while their exhaustive verdicts
    # were still decided one shift at a time: 2x^3 + x + 1 (T = 300,
    # N = 40) and 2x^4 - x^2 + 2x (T = 200, N = 30) exhaustive, and
    # 2x^4 - x^2 + 3 at random (T = 2e5, N = 200, 30 samples).
    ENSEMBLE_CASES = [
        ("x3-random", "cn",
         "6c850c8abdf6ae7b336c7ed74710b820b1db5c0c084aea08bb7034ffd7f4b3d2"),
        ("x3-random", "dn",
         "9a271f96c51e2776977c67eb05be21df9a3d4e79852fa5f46be1bc5b918d84b4"),
        ("x3-random", "bad",
         "d4a3ec257b79d671823bc079eb9f72b0f8a8618e84d89b23319dae88c0acad2c"),
        ("x3-random", "b2",
         "b21013bed05c7c6ffe4d1d55107376fcbc337b898167989d392fad7c05c14a4b"),
        ("x4x-exhaustive", "cn",
         "689155cbb96a12c94edea21b48daa92ad3dffd17a0e81d6de68f43cebdbe7e51"),
        ("x4x-exhaustive", "dn",
         "3addb033f691061168946f54d629077c35bf14da5f7ec7acec5ee2ae742253a7"),
        ("x4x-exhaustive", "bad",
         "77ab475caea91de64fef98c94cfb0e163982c79a76060ffa24ef3adf1a289d66"),
        ("x4x-exhaustive", "b2",
         "e3aa9760001ab6b85aa9e203c90e1bd85376c95a42fedb126ce662cffa7d231a"),
        ("cubic-lc2-exhaustive", "cn",
         "d30775ad8e72eccd747320b11235d0b2dd31f8635adb6d94e06f1691d06b8dd4"),
        ("cubic-lc2-exhaustive", "bad",
         "cd6de164b81bdfe8812eab561c1f635a6fe17241a698918a3a045c3e96907d07"),
        ("quartic-lc2-exhaustive", "cn",
         "d1de6eae1bdaf87cb9d0bb4e8f29ca1cdfd100609544802fbc1578270082adc3"),
        ("quartic-lc2-exhaustive", "bad",
         "c60c54ce7fdd1ea87107e9764a6197687391f2e766703a5d276c3fd8bafdcdf8"),
        ("quartic-lc2-random", "dn",
         "350f4c554931f07a9ee7db4cd539f0eb8bb384eb0918d2ed5de2db46dbb487cb"),
    ]
    ENSEMBLES = {
        "x3-random": ((0, 0, 0, 1), 200_000, 300, {"sampling": "random", "n_samples": 50}),
        "x4x-exhaustive": ((0, 1, 0, 0, 1), 1100, 50, {"sampling": "exhaustive"}),
        "cubic-lc2-exhaustive": ((1, 1, 0, 2), 300, 40, {"sampling": "exhaustive"}),
        "quartic-lc2-exhaustive": ((0, 2, -1, 0, 2), 200, 30, {"sampling": "exhaustive"}),
        "quartic-lc2-random": (
            (3, 0, -1, 0, 2), 200_000, 200, {"sampling": "random", "n_samples": 30}
        ),
    }

    @pytest.mark.parametrize(
        "ensemble, stat, digest", ENSEMBLE_CASES, ids=[f"{e}-{s}" for e, s, _ in ENSEMBLE_CASES]
    )
    def test_ensemble_digest(self, ensemble, stat, digest):
        coeffs, T, N, kw = self.ENSEMBLES[ensemble]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some (T, N) are outside their window
            stats = ensemble_average(IntPoly(coeffs), T, N, stat, **kw)
        assert hashlib.sha256(stats.to_json().encode()).hexdigest() == digest


class TestFrozenColdPaths:
    # SHA-256 of the bytes a new process writes on the paths it pays for
    # once: `decompose` JSON on one new monic family per degree 3-6
    # (coefficients in [-9, 9], |a| <= 100, as the benchmark's cold
    # families), with the family caches cleared so each meets its
    # discriminant and tables cold; and ensemble JSON over two worker
    # processes, whose pool is imported on first use.
    DECOMPOSE_CASES = [
        ((-2, 2, 2, 1), 96, 250,
         "7996390ee224d6803546948841b6bc04932a630bb8a8be1ec1a84f87dd93f963"),
        ((-1, -1, -7, 1, 1), 49, 450,
         "13bd12b09545c1bb76a7907ae43848a75e8e55c64d0a7b2f6b5eb9e2b117027b"),
        ((-3, 5, 5, 8, -3, 1), -20, 650,
         "9f8a9424c99390a6f2b97a01e4bb65c0e00c71ac76412de724c8b75183890711"),
        ((1, 7, -4, -8, -6, 2, 1), 8, 900,
         "2d7d1923f78fe1e345a0ebed70250f83c83119f2c5b0fbd904d27837a22d0313"),
    ]

    @pytest.mark.parametrize(
        "coeffs, a, N, digest", DECOMPOSE_CASES, ids=["deg3", "deg4", "deg5", "deg6"]
    )
    def test_cold_decompose_digest(self, coeffs, a, N, digest, capsys):
        polyring._disc_family.cache_clear()
        modroots._family_root_table.cache_clear()
        argv = ["decompose", "--f0=" + ",".join(map(str, coeffs)), f"--a={a}", f"--N={N}"]
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    THREADED_CASES = [
        ((0, 1, 0, 0, 1), 300, 30, "cn", {"sampling": "exhaustive"},
         "18a093eb1d3387652c8894c07f8ffca213be0c733bfa83937540325f92add8dc"),
        ((0, 0, 0, 1), 200_000, 300, "delta", {"sampling": "random", "n_samples": 30},
         "e1543f3950f955b0babf5c38a0e50e1b3269ebe4c0418a3b3f7d7e300ea0228a"),
    ]

    @pytest.mark.parametrize(
        "coeffs, T, N, stat, kw, digest",
        THREADED_CASES,
        ids=["x4x-cn-exhaustive", "x3-delta-random"],
    )
    def test_two_worker_ensemble_digest(self, coeffs, T, N, stat, kw, digest):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # x^3 at N = 300 is below its window
            stats = ensemble_average(IntPoly(coeffs), T, N, stat, threads=2, **kw)
        assert hashlib.sha256(stats.to_json().encode()).hexdigest() == digest


class TestBatchColumns:
    # The ensembles' batch path (one column record per list of shifts,
    # decomp._columns) against the single-shift path (c_N, e_N_d_N, bad_N),
    # bit for bit: cn, dn, bad and b2 against C_N, D_N, Bad_N and B2.

    @staticmethod
    def _irreducible_shifts(rng, f0, n, wide):
        shifts = set()
        while len(shifts) < n:
            a = rng.randint(-300, 300)
            if wide:
                a += rng.choice((1, -1)) * rng.randint(1 << 63, 1 << 70)
            if is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly()):
                shifts.add(a)
        return sorted(shifts)

    @staticmethod
    def _splits(f0, shifts, N):
        # (Bad_N, B2) of each shift from the record.
        record = decomp._columns(f0, shifts, N)
        return list(zip(record.bad.tolist(), record.b2.tolist()))

    @staticmethod
    def _want_splits(f0, shifts, N):
        return [(split.total, split.b2) for split in (bad_N(f0, a, N) for a in shifts)]

    @classmethod
    def _assert_columns_equal(cls, f0, shifts, N):
        record = decomp._columns(f0, shifts, N)
        cn, dn = record.cn.tolist(), record.dn.tolist()
        bad = cls._splits(f0, shifts, N)
        want_bad = cls._want_splits(f0, shifts, N)
        for i, a in enumerate(shifts):
            want = (c_N(f0, a, N), e_N_d_N(f0, a, N)[1], *want_bad[i])
            got = (cn[i], dn[i], *bad[i])
            assert [x.hex() for x in got] == [x.hex() for x in want], (f0, a, N)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_columns_equal_single_shift_terms(self, d):
        rng = random.Random(1100 + d)
        f0 = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (1,))
        shifts = self._irreducible_shifts(rng, f0, 12, wide=False)
        shifts += self._irreducible_shifts(rng, f0, 4, wide=True)
        shifts.sort()
        # A new family seen first by a batch: D's nodes are a = 0 .. d - 1,
        # whatever the shifts, and the batch reads the Newton form.
        polyring._disc_family.cache_clear()
        decomp._column_record.cache_clear()
        self._assert_columns_equal(f0, shifts[:1], 50)
        family = polyring._disc_family(f0.coeffs)
        assert family.poly is not None
        assert list(family.nodes) == list(range(d))
        for N in (1, 2, 50, 700):
            self._assert_columns_equal(f0, shifts, N)

    def test_primes_above_brute_force_limit(self, x3_plus_2x):
        # Primes >= BRUTE_FORCE_LIMIT have no kept row; the batch reads a
        # transient term row there, the single-shift loop a root search.
        N = modroots.BRUTE_FORCE_LIMIT + 100
        shifts = self._irreducible_shifts(random.Random(16484), x3_plus_2x, 3, wide=False)
        self._assert_columns_equal(x3_plus_2x, shifts, N)

    @classmethod
    def _assert_bad_equal(cls, f0, shifts, N):
        got = cls._splits(f0, shifts, N)
        want = cls._want_splits(f0, shifts, N)
        assert [[x.hex() for x in s] for s in got] == [[x.hex() for x in s] for s in want], (
            f0, shifts, N)

    def test_bad_at_deep_discriminant_primes(self):
        # The planted families of TestDiscriminantPrimes, f0 = (x - r)(x - r
        # - p**e t) g(x), at shifts that are multiples of p**m: the roots mod
        # p are singular to a depth the strategy controls, so the counts run
        # to levels k >= 3.  The batch needs D(a) != 0 and no zero n <= N.
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
            ss=st.lists(small, min_size=1, max_size=6, unique=True),
            N=st.integers(1, 150),
        )
        def check(p, e, r, t, g, m, ss, N):
            f0 = IntPoly((-r, 1)) * IntPoly((-r - p**e * t, 1)) * IntPoly((*g, 1))
            values = {f0(n) for n in range(1, N + 1)}
            shifts = [
                a for a in (p**m * s for s in sorted(ss))
                if a not in values and disc_via_sylvester(list(ShiftedPoly(f0, a).to_poly().coeffs))
            ]
            hypothesis.assume(shifts)
            self._assert_bad_equal(f0, shifts, N)

        check()

    def test_bad_levels_either_side_of_the_table_limit(self, monkeypatch):
        # The record counts a level p**k <= decomp._LEVEL_TABLE_LIMIT from a
        # bincount of f0(1..N) mod p**k and sorts the residues above it.
        # The limit is the planted prime p, so its level 1 reads the table
        # and its deeper levels sort; shifts -1 and p**m - 1 ask for the
        # table's last residue.  A record reaches both where a shift with
        # p | D(a) has a hit at level 1 and p**2 is within the bound.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        small = st.integers(-12, 12)
        both = []

        @hypothesis.settings(max_examples=80, derandomize=True, deadline=None)
        @hypothesis.given(
            p=st.sampled_from((2, 3, 5, 7)),
            e=st.integers(1, 4),
            r=st.integers(-40, 40),
            t=small.filter(bool),
            g=st.lists(small, min_size=1, max_size=3),
            m=st.integers(0, 4),
            ss=st.lists(small, min_size=1, max_size=6, unique=True),
            N=st.integers(1, 150),
        )
        def check(p, e, r, t, g, m, ss, N):
            f0 = IntPoly((-r, 1)) * IntPoly((-r - p**e * t, 1)) * IntPoly((*g, 1))
            values = {f0(n) for n in range(1, N + 1)}
            discs = {
                a: disc_via_sylvester(list(ShiftedPoly(f0, a).to_poly().coeffs))
                for a in {-1, p**m - 1, *(p**m * s for s in ss)} - values
            }
            shifts = sorted(a for a, D in discs.items() if D)
            hypothesis.assume(shifts)
            monkeypatch.setattr(decomp, "_LEVEL_TABLE_LIMIT", p)
            decomp._column_record.cache_clear()
            self._assert_bad_equal(f0, shifts, N)
            bound = decomp._coeff_bound(f0.coeffs, N) + max(map(abs, shifts))
            both.append(p * p <= bound and any(
                discs[a] % p == 0 and any((v - a) % p == 0 for v in values) for a in shifts
            ))

        check()
        decomp._column_record.cache_clear()
        assert sum(both) >= 10, both

    def test_an_exhaustive_record_does_not_import_numpy_ma(self):
        # An exhaustive x^4 + x bad record in a fresh interpreter: the level
        # counts stay on bincount and searchsorted, while np.unique would
        # import numpy.ma lazily, a cost every x4-sweep worker would carry.
        code = (
            "import sys\n"
            "from polylcm.ensemble import ensemble_average\n"
            "from polylcm.polyring import IntPoly\n"
            "ensemble_average(IntPoly((0, 1, 0, 0, 1)), 1100, 50, 'bad', sampling='exhaustive')\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(decomp.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_bad_level_modulus_above_int64(self, x3):
        # f_a(2) = 3 * 2**64: the 2-adic levels run to 2**64, so the batch
        # reduces Python ints (dtype=object).
        a = 8 - 3 * 2**64
        f = ShiftedPoly(x3, a)
        assert f(2) == 3 * 2**64
        self._assert_bad_equal(x3, [a], 10)
        assert bad_N(x3, a, 10).b2 > 0

    def test_bad_level_reached_at_the_bound(self, x3):
        # f_a(2) = 32 = B = 2**3 + |a| for a = -24: level 32 is reached and
        # the next level lies above B, where only a zero could be hit.
        assert ShiftedPoly(x3, -24)(2) == 32
        self._assert_bad_equal(x3, [-24], 2)
        self._assert_bad_equal(x3, [-24, 6, 10], 2)

    def test_bad_zero_value_raises(self, x3):
        # Outside the precondition: f_8(2) = 0 and f_27(3) = 0.  The batch
        # raises at the first shift in order with a zero, naming its first
        # zero, as the per-shift path does.
        with pytest.raises(ZeroValueError) as err:
            decomp._columns(x3, [8], 5)
        assert err.value.n == 2
        for shifts, n in (([2, 8, 27], 2), ([3, 27, 8], 3)):
            with pytest.raises(ZeroValueError) as want:
                [bad_N(x3, a, 5) for a in shifts]
            with pytest.raises(ZeroValueError) as err:
                decomp._columns(x3, shifts, 5)
            assert err.value.n == want.value.n == n, shifts

    @pytest.mark.parametrize(
        "coeffs, shift, N, error",
        [
            ((0, -1, 1), 0, 5, ZeroValueError),  # x^2 - x: zero at n = 1, no disc prime
            ((0, 0, 0, 1), 1, 1, ZeroValueError),  # N = 1: no prime at all
            ((1, 0, 2, 0, 1), 0, 10, ValueError),  # (x^2 + 1)^2: D = 0, no zero
        ],
    )
    def test_rejects_what_c_N_rejects(self, coeffs, shift, N, error):
        # Outside the precondition, each shift alone and as the first bad
        # shift among good ones: the error c_N raises, with its first zero.
        f0 = IntPoly(coeffs)
        with pytest.raises(error) as want:
            c_N(f0, shift, N)
        good = [
            a for a in range(shift + 1, shift + 40)
            if is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly())
        ]
        for shifts in ([shift], [*good[:3], shift, *good[3:6]]):
            with pytest.raises(error) as got:
                decomp._columns(f0, shifts, N)
            assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_first_rejected_shift_in_order(self, x3):
        # D(0) = 0 for x^3 and f_27(3) = 0: whichever comes first raises,
        # on the int64 and the object path alike.
        wide = 2**70 + 1
        for shifts, error in (([5, 0, 27], ValueError), ([5, 27, 0], ZeroValueError)):
            for extra in ([], [wide]):
                with pytest.raises(error):
                    decomp._columns(x3, [*shifts, *extra], 10)
        with pytest.raises(ZeroValueError) as err:
            decomp._columns(x3, [wide, 5, 8, 27], 10)
        assert err.value.n == 2

    def test_gathered_masks_match_the_exact_discriminant(self):
        # Every p <= 50 is below BRUTE_FORCE_LIMIT, so _term_index gathers
        # the family's term row (built once over the residues 0..p-1) at
        # a mod p.  Its zeros are the Newton form's at a mod p, and p | D(a)
        # for the exact D(a); elsewhere it is the count of table.roots + 1.
        # hit asks that some shift is masked at primes both below and from
        # len(shifts) on, all of them gathered.
        f0 = IntPoly((3, -2, 0, 1, 1))
        shifts = self._irreducible_shifts(random.Random(2718), f0, 12, wide=False)
        D = polyring._disc_family(f0.coeffs).fill().coeffs
        table = modroots._family_root_table(f0.coeffs)
        a = np.array(shifts, dtype=np.int64)
        exact = [disc_via_sylvester(list(ShiftedPoly(f0, s).to_poly().coeffs)) for s in shifts]
        hit = {True: 0, False: 0}
        for p in ntkernel.sieve_primes(50):
            at = decomp._term_index(f0.coeffs, a, p)
            assert at.dtype == np.intp
            disc = at == 0
            assert disc.tolist() == (polyring._horner_mod(D, a % p, p) == 0).tolist()
            assert disc.tolist() == [E % p == 0 for E in exact]
            assert at.tolist() == [0 if m else len(table.roots(s, p)) + 1 for s, m in zip(shifts, disc)]
            hit[p < len(shifts)] += int(disc.sum())
        assert hit[True] and hit[False], hit


class TestTermRowLimit:
    # The record reads the disc mask and the C_N and D_N terms at a mod p
    # from the family's term row at every prime.  decomp's copy of the limit,
    # lowered here, steers only the report's discriminant-prime roots, so
    # the record still reads kept rows at every prime <= 60; lowering
    # modroots' limit (TestTransientTermRows) makes the primes from 20 on
    # read transient rows.
    @pytest.fixture
    def limit(self, monkeypatch):
        monkeypatch.setattr(decomp, "BRUTE_FORCE_LIMIT", 20)
        decomp._column_record.cache_clear()
        yield decomp.BRUTE_FORCE_LIMIT
        decomp._column_record.cache_clear()

    def test_masks_match_the_exact_discriminant(self, limit):
        f0 = IntPoly((3, -2, 0, 1, 1))
        shifts = TestBatchColumns._irreducible_shifts(random.Random(2718), f0, 12, wide=False)
        # Above the limit _term_index reads D from the family, filled or not.
        polyring._disc_family.cache_clear()
        a = np.array(shifts, dtype=np.int64)
        exact = [disc_via_sylvester(list(ShiftedPoly(f0, s).to_poly().coeffs)) for s in shifts]
        hit = {True: 0, False: 0}
        for p in ntkernel.sieve_primes(60):
            disc = decomp._term_index(f0.coeffs, a, p) == 0
            assert disc.tolist() == [E % p == 0 for E in exact]
            hit[p < limit] += int(disc.sum())
        assert hit[True] and hit[False], hit

    def test_columns_equal_single_shift_terms(self, x3_plus_2x, limit):
        shifts = TestBatchColumns._irreducible_shifts(random.Random(20), x3_plus_2x, 40, wide=False)
        TestBatchColumns._assert_columns_equal(x3_plus_2x, shifts, 60)
        # With shifts past int64 the batch holds Python ints (dtype=object),
        # so a mod p and table.rho run on big shifts on both sides of the limit.
        big = [10**25 + a for a in shifts]
        assert all(is_irreducible_over_Q(ShiftedPoly(x3_plus_2x, a).to_poly()) for a in big)
        TestBatchColumns._assert_columns_equal(x3_plus_2x, shifts + big, 60)


class TestTransientTermRows:
    # From modroots.BRUTE_FORCE_LIMIT on, a term row is built from the
    # residue counts on each call and not kept, and no shift's roots are
    # searched; the single-shift terms search them (roots_mod_p), so the two
    # paths share only the lookups.

    @pytest.fixture
    def low_limit(self, monkeypatch):
        # Primes <= 60 take the kept rows below 20 and transient rows above.
        def clear():
            for cache in (decomp._column_record, modroots._family_root_table):
                cache.cache_clear()

        monkeypatch.setattr(modroots, "BRUTE_FORCE_LIMIT", 20)
        clear()
        yield 20
        clear()

    def test_columns_equal_single_shift_terms(self, x3_plus_2x, low_limit):
        for f0 in (x3_plus_2x, IntPoly((1, 1, 0, 2)), IntPoly((3, -2, 0, 1, 1))):
            shifts = TestBatchColumns._irreducible_shifts(random.Random(60), f0, 30, wide=False)
            big = [10**25 + a for a in shifts[:5]]
            big = [a for a in big if is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly())]
            TestBatchColumns._assert_columns_equal(f0, shifts + big, 60)
            kept = modroots._family_root_table(f0.coeffs)._term_rows
            assert sorted(kept) == [p for p in ntkernel.sieve_primes(60) if p < low_limit], f0

    @staticmethod
    def _crossing_batch(f0, shifts):
        # The record of shifts at N = 2^14 + 100, from cold caches.
        for cache in (decomp._column_record, modroots._family_root_table):
            cache.cache_clear()
        return decomp._columns(f0, shifts, modroots.BRUTE_FORCE_LIMIT + 100)

    def test_no_row_kept_from_the_limit_on(self):
        f0 = IntPoly((0, 1, 0, 0, 1))
        self._crossing_batch(f0, [3, -7, 11])
        kept = modroots._family_root_table(f0.coeffs)._term_rows
        assert sorted(kept) == list(ntkernel.sieve_primes(modroots.BRUTE_FORCE_LIMIT).primes)

    def test_no_root_search(self, monkeypatch):
        calls = []
        find = modroots.roots_mod_p
        monkeypatch.setattr(modroots, "roots_mod_p", lambda f, p: calls.append(p) or find(f, p))
        self._crossing_batch(IntPoly((0, 0, 0, 1)), [2, 5, -9, 98766])
        assert calls == []

    @pytest.mark.parametrize(
        "coeffs", [(0, 1, 0, 0, 1), (0, 0, 0, 1), (1, 1, 0, 2), (1, 1, 0, 16411)],
        ids=["x4+x", "x3", "lc-2", "lc-16411"],
    )
    def test_crossing_batches_equal_single_shift_terms(self, coeffs):
        # Seeded batches across the limit: x^4 + x, x^3, and non-monic
        # families whose leading coefficient has a prime below the limit (2)
        # or above it (16411, where the image drops to degree 1), with
        # shifts inside and past int64.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        N = modroots.BRUTE_FORCE_LIMIT + 60
        f0 = IntPoly(coeffs)

        @hypothesis.settings(max_examples=3, derandomize=True, deadline=None)
        @hypothesis.given(
            small=st.lists(st.integers(-200_000, 200_000), min_size=1, max_size=3, unique=True),
            wide=st.lists(st.integers(1 << 63, 1 << 70), min_size=1, max_size=2, unique=True),
        )
        def check(small, wide):
            shifts = sorted(
                a for a in set(small + wide)
                if is_irreducible_over_Q(ShiftedPoly(f0, a).to_poly())
            )
            hypothesis.assume(shifts)
            TestBatchColumns._assert_columns_equal(f0, shifts, N)

        check()


class TestDensitySums:
    # C_N, E_N and D_N as array sums against the per-prime loop they
    # replaced, bit for bit, with D inside and outside int64.
    @staticmethod
    def _scalar(N, root_primes, D):
        cn = en = dn = 0.0
        rho = {}
        for p in root_primes.tolist():
            rho[p] = rho.get(p, 0) + 1
        for p in trial_primes(N):
            log_p = math.log(p)
            if D % p == 0:
                en += log_p / p
                continue
            r = rho.get(p, 0)
            if r:
                cn += r * log_p / (p - 1)
            if r != 1:
                dn += (r - 1) * log_p / p
        return cn, en, dn

    def test_equal_the_scalar_loop(self):
        rng = random.Random(9090)
        small = trial_primes(300)
        for _ in range(40):
            N = rng.randint(1, 1500)
            D = rng.choice((1, -1)) * rng.randint(1, 10**6) * rng.choice((1, 2**64 + 13))
            D *= math.prod(rng.sample(small, rng.randint(0, 8)))
            primes = ntkernel._prime_array(N)
            rho = [rng.choice((0, 0, 1, 2, 3)) for _ in primes]
            root_primes = np.repeat(primes, rho)
            disc = decomp._disc_mask(D, N)
            got = decomp._density_sums(primes, decomp._prime_logs(N), disc, root_primes)
            want = self._scalar(N, root_primes, D)
            assert [x.hex() for x in got] == [x.hex() for x in want], (N, D)


class TestTermRowFormat:
    # A family's kept term rows take one byte a residue, and the record's
    # C_N and D_N lookups hold the scalar loop's terms bit for bit.
    FAMILIES = (IntPoly((0, 1, 0, 0, 1)), IntPoly((1, 1, 0, 2)))  # x^4 + x, 2x^3 + x + 1

    def test_rows_keep_at_most_one_and_a_half_bytes_a_residue(self):
        # Every row of x^4 + x for N = 2^14 + 100: 14.6M residues.  The
        # family's RootTable and D are grown first, so only the rows count.
        f0 = self.FAMILIES[0]
        limit = modroots.BRUTE_FORCE_LIMIT
        primes = ntkernel.sieve_primes(limit + 100).upto(limit - 1)
        table = modroots.RootTable(f0)
        table.rho_row(primes[-1])
        polyring._disc_family(f0.coeffs).fill()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = [table.term_row(p) for p in primes]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(table.term_row(p) is row for p, row in zip(primes, rows))
        assert sum(primes) == 14_584_641
        assert kept <= 1.5 * sum(primes), kept

    @pytest.mark.parametrize("f0", FAMILIES, ids=["monic", "non-monic"])
    def test_lookups_equal_the_scalar_terms(self, f0):
        # Entry k + 1 of p's lookups against _density_sums at p alone with
        # rho = k roots at p and p not dividing D; entry 0 against p | D.
        primes = ntkernel.sieve_primes(modroots.BRUTE_FORCE_LIMIT).primes
        d = f0.degree
        cn, dn = decomp._term_lookups(primes, d)
        assert cn.shape == dn.shape == (len(primes), d + 2)
        assert modroots.RootTable(f0).term_row(7).dtype == np.uint8
        for i, p in enumerate(primes):
            one, log_p = np.array([p]), np.array([math.log(p)])
            off, on = np.array([False]), np.array([True])
            want = [decomp._density_sums(one, log_p, off, np.full(k, p)) for k in range(d + 1)]
            want = [decomp._density_sums(one, log_p, on, np.full(0, p)), *want]
            got = [(c.hex(), t.hex()) for c, t in zip(cn[i].tolist(), dn[i].tolist())]
            assert got == [(c.hex(), t.hex()) for c, _, t in want], p


class TestValueBudget:
    # Above the sieve's budget the value pass raises before it allocates
    # anything; the budget is lowered so that a missing guard stays small.
    # The lowered budget also stops factor's trial-division table, so the
    # shift x^3 + 2x + 1 is one whose irreducibility test factors nothing.
    def test_value_pass_raises_first(self, x3_plus_2x, monkeypatch):
        monkeypatch.setattr(ntkernel, "SIEVE_LIMIT_MAX", 1000)
        f0, a, N = x3_plus_2x, -1, 1001
        f = ShiftedPoly(f0, a)
        calls = {
            "decomposition_report": lambda: decomposition_report(f0, a, N),
            "build_ledgers": lambda: build_ledgers(f, N),
            "log_P": lambda: valengine.log_P(f, N),
            "delta_N": lambda: delta_N(f0, a, N),
        }
        for name, call in calls.items():
            with pytest.raises(ResourceLimitError, match="N = 1001 values exceed budget") as err:
                call()
            assert err.traceback[-1].name == "_horner_values", name
        assert valengine.log_P(f, N - 1) > 0


class TestAboveLimit:
    # Above CROSS_CHECK_LIMIT the report runs no lcm engine and reads log L
    # from the beta ledger and the unshared cofactors' logs; here a
    # balanced lcm tree of the values checks it independently, and Delta_N
    # is checked against the quotient of the cofactor product by its lcm.
    CASES = [((0, 0, 0, 1), a) for a in (2, -151515, 98765)] + [((0, 1, 0, 0, 1), 3)]

    @pytest.mark.parametrize("N", [4000, 8000])
    def test_log_L_matches_lcm_tree(self, N):
        assert N > CROSS_CHECK_LIMIT
        for coeffs, a in self.CASES:
            rep = decomposition_report(IntPoly(coeffs), a, N)
            L = lcm_tree([eval_poly(coeffs, n) - a for n in range(1, N + 1)])
            assert rep.log_L == pytest.approx(math.log(L), rel=1e-12, abs=0), (coeffs, a)

    @pytest.mark.parametrize("N", [4000, 8000])
    def test_delta_matches_cofactor_quotient(self, N):
        for coeffs, a in self.CASES:
            rep = decomposition_report(IntPoly(coeffs), a, N)
            expect = delta_quotient(coeffs, a, N)
            assert expect > 0, (coeffs, a)
            assert rep.delta == pytest.approx(expect, rel=1e-12, abs=0), (coeffs, a)


class TestDecompositionReport:
    def test_one_value_pass(self, x3, monkeypatch):
        # one pass for the ledgers and log P, one inside the lcm engine
        passes, lcm_calls = _count_value_passes(monkeypatch)
        N = 300
        decomposition_report(x3, 2, N)
        assert passes == [N] and lcm_calls == [N]

    @pytest.mark.parametrize("N", [600, CROSS_CHECK_LIMIT + 500])
    def test_dropped_shared_prime_is_caught(self, x3, monkeypatch, N):
        # below the limit the lcm gate catches it, above it the identity gate
        build = decomp.build_ledgers

        def dropping(f, N, **kw):
            alpha, beta, cofactors = build(f, N, **kw)
            q = max(p for p in alpha.factored if alpha.factored[p] > beta.factored[p])
            del alpha.factored[q], beta.factored[q]
            return alpha, beta, cofactors

        monkeypatch.setattr(decomp, "build_ledgers", dropping)
        with pytest.raises(InternalConsistencyError):
            decomposition_report(x3, 2, N)

    def test_wrapped_value_is_caught(self, x3, monkeypatch):
        # A value off by 2**64, as an int64 overflow would leave it, must
        # fail the lcm gate: lcm_bigint evaluates on its own.
        horner = valengine._horner_values

        def wrapping(coeffs, N, dtype):
            values = horner(coeffs, N, dtype).astype(object)
            values[N // 2] += 2**64
            return values

        monkeypatch.setattr(valengine, "_horner_values", wrapping)
        with pytest.raises(InternalConsistencyError, match="lcm tree"):
            decomposition_report(x3, 2, 300)

    def test_cold_family_one_subresultant(self, monkeypatch):
        # The irreducibility test computes no discriminant, so the one
        # subresultant sequence a family seen at one shift pays for is the
        # report's own _family_discriminant.
        f0 = IntPoly((7, 1, 0, -2, 0, 3, 1))
        calls = []
        resultant = polyring.resultant
        monkeypatch.setattr(polyring, "resultant", lambda f, g: calls.append(f) or resultant(f, g))
        polyring._disc_family.cache_clear()
        modroots._family_root_table.cache_clear()
        rep = decomposition_report(f0, 5, 60)
        assert rep.irreducible and rep.identity_ok()
        assert len(calls) <= 1

    def test_cold_family_one_table_build(self):
        # Reports without a caller's table share the family's RootTable: the
        # first grows its residue row to the primes <= N in one step, and a
        # second shift of the family grows nothing.
        f0 = IntPoly((3, -4, 0, 2, 0, 1))  # x^5 + 2x^3 - 4x + 3
        modroots._family_root_table.cache_clear()
        N = 150
        assert decomposition_report(f0, 1, N).identity_ok()
        table = modroots._family_root_table(f0.coeffs)
        row = table._row
        assert table._primes.tolist() == list(ntkernel.sieve_primes(N))
        assert decomposition_report(f0, 5, N).identity_ok()
        assert table._row is row

    def test_one_root_scan_per_call(self, x3, x3_plus_2x, monkeypatch):
        # The report's ledger sieve and its C_N/E_N/D_N sums read one scan of
        # the roots mod every p <= N; c_N and e_N_d_N make one scan each.
        scans = []
        scan = modroots.RootTable.roots_upto
        monkeypatch.setattr(
            modroots.RootTable, "roots_upto", lambda t, a, N: scans.append((a, N)) or scan(t, a, N)
        )
        for f0, a, N in ((x3, 2, 300), (x3_plus_2x, 7, 120)):
            scans.clear()
            decomposition_report(f0, a, N)
            assert scans == [(a, N)], (f0, a, N)
            for term in (c_N, e_N_d_N):
                scans.clear()
                term(f0, a, N)
                assert scans == [(a, N)], (term.__name__, f0, a, N)

    def test_one_root_search_per_large_prime(self, x3, monkeypatch):
        # Above BRUTE_FORCE_LIMIT the report asks roots_mod_p once per prime.
        # The discriminant primes of x^3 - 98766 are 2, 3, 31 and 59; those
        # of x^3 - 16411 are 3 and 16411 >= BRUTE_FORCE_LIMIT, whose roots
        # Bad_N takes from the report's scan.
        calls = []
        find = modroots.roots_mod_p
        monkeypatch.setattr(modroots, "roots_mod_p", lambda f, p: calls.append(p) or find(f, p))
        for a, N in ((98766, 17000), (16411, 16500)):
            calls.clear()
            assert decomposition_report(x3, a, N).identity_ok()
            top = ntkernel.sieve_primes(N).primes
            assert calls == [p for p in top if p >= modroots.BRUTE_FORCE_LIMIT], (a, N)

    def test_bad_split_matches_bad_N(self, x3, x3_plus_2x):
        # Bad and B1 of the report against trial division of every value at
        # the discriminant primes <= N, summed in the same ascending order.
        for f0, a, N in ((x3, 2, 300), (x3, 6, 200), (x3, -12, 250), (x3_plus_2x, 7, 120)):
            rep = decomposition_report(f0, a, N)
            fa = ShiftedPoly(f0, a).to_poly().coeffs
            values = [eval_poly(fa, n) for n in range(1, N + 1)]
            D = disc_via_sylvester(list(fa))
            bad = b1 = 0.0
            for p in trial_primes(N):
                if D % p == 0:
                    bad += alpha_direct(values, p) * math.log(p)
                    b1 += sum(1 for v in values if v % p == 0) * math.log(p)
            assert rep.b1 > 0, (f0, a)
            assert (rep.bad, rep.b1, rep.b2) == (bad, b1, bad - b1), (f0, a)

    def test_identity_non_monic_families(self):
        # Leading coefficient negative or |lc| >= 2, irreducible shifts only:
        # the identity holds and the beta ledger's product is the lcm of the
        # values by the gcd-chain oracle.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=40, derandomize=True, deadline=None)
        @hypothesis.given(
            lead=st.integers(-6, 6).filter(lambda c: c not in (0, 1)),
            low=st.lists(st.integers(-9, 9), min_size=2, max_size=5),
            a=st.integers(-300, 300),
            N=st.integers(1, 300),
        )
        def check(lead, low, a, N):
            f0 = IntPoly((*low, lead))
            f = ShiftedPoly(f0, a)
            fa = f.to_poly()
            hypothesis.assume(polyring.is_primitive(fa) and is_irreducible_over_Q(fa))
            rep = decomposition_report(f0, a, N)
            assert rep.identity_ok(), (f0, a, N)
            _, beta, _ = build_ledgers(f, N)
            assert beta.product() == lcm_chain([f(n) for n in range(1, N + 1)]), (f0, a, N)

        check()

    def test_identity_example(self, x3):
        rep = decomposition_report(x3, 2, 5)
        assert rep.identity_ok()
        assert rep.log_L == pytest.approx(math.log(190650))
        assert rep.bad == pytest.approx(3.58351893845611, abs=1e-6)
        assert rep.c_N == pytest.approx(0.402359, abs=1e-4)

    def test_identity_structure(self, x3_plus_2x):
        rep = decomposition_report(x3_plus_2x, 7, 120)
        rhs = (
            rep.log_P
            + rep.beta_small_logsum
            - rep.bad
            - rep.alpha_small_nondisc_logsum
            - rep.delta
        )
        assert rep.log_L == pytest.approx(rhs, rel=1e-6)
        assert rep.bad >= 0 and rep.delta >= 0
        assert rep.b1 + rep.b2 == pytest.approx(rep.bad, rel=1e-12)

    def test_reducible_whole_family(self, x3):
        with pytest.raises(IrreducibilityRequiredError):
            decomposition_report(x3, -1, 6)
        rep = decomposition_report(x3, -1, 6, allow_reducible=True)
        assert not rep.irreducible
        assert rep.delta == pytest.approx(2 * math.log(7))

    def test_zero_disc_rejected_when_reducible_allowed(self, x3):
        # x^3 is reducible with D = 0; the flag admits it, the terms cannot.
        with pytest.raises(ValueError, match="discriminant is zero"):
            decomposition_report(x3, 0, 10, allow_reducible=True)

    # Families and shifts each reducible over Q, with D(a) != 0 and no zero
    # at n <= 40: rational roots m <= 0 (the shifts f0(m)), products of two
    # quadratics (x^4 + x^3 - 2x - 4 = (x^2 - 2)(x^2 + x + 2), and
    # 2x^4 + 7x^2 + 8 - a for a = 2, 3, 5, 12), and binomials by Capelli.
    REDUCIBLE = [
        ((3, -2, 0, 1, 1), [5, 15, 63, 7]),
        ((1, 0, 2, -1, 0, 1), [-15, -197, -927]),
        ((8, 0, 7, 0, 2), [2, 3, 5, 12]),
        ((1, 1, 0, 0, 0, 0, 2), [1, 2, 127]),
        ((0, 0, 0, 0, 0, 0, 1), [8, 9, -8, -1, -27]),
        ((0, 0, 0, 0, 1), [-4, -64, 9]),
    ]

    def test_verdict_is_the_one_off_verdict_and_sympys(self):
        # The report decides f0 - a over its family's pattern rows; the
        # verdict must be is_irreducible_over_Q's and sympy's, on monic,
        # non-monic and binomial families at their reducible shifts and at
        # seeded random ones.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(3607)
        N = 40
        polyring._family_pattern_rows.cache_clear()
        verdicts = []
        for coeffs, reducible in self.REDUCIBLE:
            f0 = IntPoly(coeffs)
            values = {f0(n) for n in range(1, N + 1)}
            drawn = [rng.randint(-(10**4), 10**4) for _ in range(8)]
            for a in reducible + [a for a in drawn if a not in values]:
                fa = ShiftedPoly(f0, a).to_poly()
                rep = decomposition_report(f0, a, N, allow_reducible=True)
                _, factors = sympy.factor_list(sympy.Poly(list(reversed(fa.coeffs)), x))
                want = len(factors) == 1 and factors[0][1] == 1
                assert type(rep.irreducible) is bool
                assert rep.irreducible == is_irreducible_over_Q(fa) == want, (coeffs, a)
                assert want or a in reducible, (coeffs, a)
                verdicts.append(want)
        assert verdicts.count(False) == sum(len(r) for _, r in self.REDUCIBLE)
        assert verdicts.count(True) > 30

    def test_non_primitive_shift_raises_the_verdicts_error(self):
        # 2 divides 2x^3 + 4x + 1 - a for every odd a.
        f0 = IntPoly((1, 4, 0, 2))
        for a in (3, -1, 10**20 + 1):
            fa = ShiftedPoly(f0, a).to_poly()
            for call in (
                lambda: decomposition_report(f0, a, 30),
                lambda: decomposition_report(f0, a, 30, allow_reducible=True),
                lambda: is_irreducible_over_Q(fa),
            ):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == "irreducibility test requires a primitive polynomial"

    def test_repeated_shift_reuses_the_family_pattern_rows(self, monkeypatch):
        # x^4 + x^3 - 2x - 8 has no rational root, so its verdict walks
        # factor patterns mod p; the family keeps them, and a second report
        # of the shift walks none.
        f0 = IntPoly((3, -2, 0, 1, 1))
        walks = []
        pattern = polyring._degree_pattern_mod_p
        monkeypatch.setattr(
            polyring, "_degree_pattern_mod_p", lambda f, p: walks.append(p) or pattern(f, p)
        )
        polyring._family_pattern_rows.cache_clear()
        assert decomposition_report(f0, 11, 200).irreducible
        assert walks
        walks.clear()
        assert decomposition_report(f0, 11, 400).irreducible
        assert walks == []

    def test_N_equals_1(self, x3):
        rep = decomposition_report(x3, 2, 1)
        assert rep.c_N == 0.0
        assert rep.bad == 0.0
        assert rep.delta == 0.0
        assert rep.log_L == pytest.approx(rep.log_P)

    def test_residual_is_reported_not_asserted(self, x3):
        rep = decomposition_report(x3, 2, 300)
        d = 3
        expected = rep.log_L - (d * 300 * math.log(300) - rep.bad - rep.delta - 300 * rep.c_N)
        assert rep.residual == pytest.approx(expected)

    def test_alpha_beta_restriction_consistency(self, x3):
        # the report's small-prime sums must match independently built ledgers
        f = ShiftedPoly(x3, 11)
        N = 150
        rep = decomposition_report(x3, 11, N)
        alpha, beta = map(prime_map, build_ledgers(f, N)[:2])
        D = discriminant(f.to_poly())
        beta_small = sum(e * math.log(p) for p, e in sorted(beta.items()) if p <= N)
        alpha_nd = sum(
            e * math.log(p) for p, e in sorted(alpha.items()) if p <= N and D % p != 0
        )
        assert rep.beta_small_logsum == pytest.approx(beta_small)
        assert rep.alpha_small_nondisc_logsum == pytest.approx(alpha_nd)

    def test_json_and_csv(self, x3):
        rep = decomposition_report(x3, 2, 5)
        payload = json.loads(rep.to_json())
        assert payload["a"] == 2 and payload["N"] == 5
        assert payload["irreducible"] is True
        row = rep.csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))

    def test_dict_keys_are_field_names(self, x3):
        rep = decomposition_report(x3, 2, 5)
        payload = rep.to_dict()
        assert list(payload) == [f.name for f in dataclasses.fields(rep)]
        assert payload["f0"] == [0, 0, 0, 1]

    def test_json_schema(self, x3):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("polylcm.schemas")
            .joinpath("decomposition_report.schema.json")
            .read_text()
        )
        rep = decomposition_report(x3, 2, 5)
        jsonschema.validate(json.loads(rep.to_json()), schema)

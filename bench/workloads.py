"""The benchmark's workloads: seeded inputs, the public calls that are timed,
independent checks of every output, and the canonical outputs hashed into
the run digest.

A workload's inputs are a list of call groups made from a seeded
``random.Random``; a timed phase stops only between groups.  A call is a
plain tuple, so it can be hashed into the digest with its output.

The checks share no code with polylcm's engines.  They use a balanced
``math.lcm`` tree for L, a distinct-degree irreducibility test over GF(p)
for picking inputs, and closed forms for the x^4 + x family:
disc(x^4 + x - a) = -27 - 256 a^3, and x^4 + x - a is reducible exactly when
a = n^4 + n for an integer n.  A quadratic split would need b(e - c) = 1 and
c + e = b^2, which forces a = 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

from polylcm import cli, decomp, ensemble, modroots
from polylcm.polyring import IntPoly

# Relative agreement required between a reported log L and the log of the
# benchmark's own lcm, and between the ensemble moments and their recomputation.
LOG_L_RTOL = 1e-9
MOMENT_RTOL = 1e-9
COVARIANCE_RTOL = 1e-12


class X3N2000:
    """decomposition_report for irreducible shifts of x^3 at N = 2000, with
    one RootTable shared by every call and the gcd-chain cross-check on."""

    name = "x3-N2000"
    N = 2000
    A_MAX = 200_000
    WARM_UP_SHIFT = 2
    pregenerated = 400
    digest_groups = 8
    min_groups = 34
    trace_groups_per_s = 2.5

    def __init__(self, rng, scratch_dir):
        self.f0 = IntPoly((0, 0, 0, 1))
        self.groups = []
        while len(self.groups) < self.pregenerated:
            a = rng.randint(-self.A_MAX, self.A_MAX)
            if not _is_cube(a):
                self.groups.append([a])
        self.table = modroots.RootTable(self.f0)

    def warm_up(self):
        self.execute(self.WARM_UP_SHIFT)

    def execute(self, a):
        return decomp.decomposition_report(self.f0, a, self.N, root_table=self.table)

    def shifts(self, call):
        return 1

    def check(self, a, report):
        if (report.a, report.N, report.irreducible) != (a, self.N, True):
            return f"report echoes (a, N, irreducible) = {(report.a, report.N, report.irreducible)}"
        if not report.identity_ok():
            return f"identity gap {report.identity_gap():.3e}"
        return _check_log_L(self.f0.coeffs, a, self.N, report.log_L)

    def canonical(self, report):
        return _without_timings(report.to_dict())


class X4Sweep:
    """Exhaustive sweeps of the x^4 + x family: reducible_count, exhaustive
    ensemble averages of cn, dn and bad, and three sigma covariances, each
    over every |a| <= T with N inside the admissible window."""

    name = "x4-sweep"
    F0 = (0, 1, 0, 0, 1)
    T_RANGE = (1000, 1200)
    N_RANGE = (45, 55)
    STATISTICS = ("cn", "dn", "bad")
    PAIRS = ((11, 13), (17, 19), (11, 31))
    WARM_UP_T = 200
    pregenerated = 12
    digest_groups = 1
    min_groups = 1
    trace_groups_per_s = 1 / 12

    def __init__(self, rng, scratch_dir):
        self.f0 = IntPoly(self.F0)
        self.groups = []
        for _ in range(self.pregenerated):
            T = rng.randint(*self.T_RANGE)
            N = rng.randint(*self.N_RANGE)
            sweep = [("reducible_count", T)]
            sweep += [("ensemble_average", T, N, stat) for stat in self.STATISTICS]
            sweep += [("covariance_sigma", T, p, q) for p, q in self.PAIRS]
            self.groups.append(sweep)

    def warm_up(self):
        self.execute(("reducible_count", self.WARM_UP_T))

    def execute(self, call):
        kind, T = call[0], call[1]
        if kind == "reducible_count":
            return ensemble.reducible_count(self.f0, T)
        if kind == "ensemble_average":
            N, stat = call[2], call[3]
            return ensemble.ensemble_average(self.f0, T, N, stat, sampling="exhaustive")
        p, q = call[2], call[3]
        return ensemble.covariance_sigma(self.f0, p, q, T)

    def shifts(self, call):
        return 2 * call[1] + 1

    def check(self, call, out):
        kind, T = call[0], call[1]
        reducible = _x4_reducible(T)
        if kind == "reducible_count":
            return None if out == len(reducible) else f"{out} reducible, expected {len(reducible)}"
        if kind == "covariance_sigma":
            expected = _x4_covariance(call[2], call[3], T, reducible)
            if not math.isclose(out, expected, rel_tol=COVARIANCE_RTOL, abs_tol=COVARIANCE_RTOL):
                return f"covariance {out!r}, expected {expected!r}"
            return None
        N, stat = call[2], call[3]
        stats = out.to_dict()
        counts = (stats["statistic"], stats["count_total"], stats["count_irreducible"])
        expected_counts = (stat, 2 * T + 1, 2 * T + 1 - len(reducible))
        if counts != expected_counts:
            return f"(statistic, count_total, count_irreducible) = {counts}, not {expected_counts}"
        values = _x4_statistic(T, N, stat, reducible)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        for key, expected in (("mean", mean), ("variance", variance)):
            got = stats[key]
            if not math.isclose(got, expected, rel_tol=MOMENT_RTOL, abs_tol=MOMENT_RTOL):
                return f"{stat} {key} {got!r}, expected {expected!r}"
        return None

    def canonical(self, out):
        return out.to_dict() if isinstance(out, ensemble.EnsembleStats) else out


class ColdFamilies:
    """In-process ``polylcm decompose`` on a new random monic family per call:
    degree 3-6, coefficients in [-9, 9], one irreducible shift |a| <= 100 and
    N in [200, 1000].  Degree and N range are stratified so that every run
    carries nearly the same mix of cheap and expensive families: a group is
    four calls, one per degree, and each block of four groups is a seeded
    Latin square over the four N ranges, so every (degree, N range) cell
    comes once per block.  N is uniform within its range."""

    name = "cold-families"
    DEGREES = (3, 4, 5, 6)
    N_BINS = ((200, 399), (400, 599), (600, 799), (800, 1000))
    COEFF_MAX = 9
    A_MAX = 100
    pregenerated = 60
    digest_groups = 2
    min_groups = 9
    trace_groups_per_s = 0.4

    def __init__(self, rng, scratch_dir):
        self.groups = []
        while len(self.groups) < self.pregenerated:
            bins = list(range(len(self.N_BINS)))
            rng.shuffle(bins)
            for j in range(len(bins)):
                group = []
                for i, d in enumerate(self.DEGREES):
                    lo, hi = self.N_BINS[(bins[i] + j) % len(bins)]
                    coeffs, a = self._family(rng, d)
                    group.append((coeffs, a, rng.randint(lo, hi)))
                self.groups.append(group)
        self.out_path = os.path.join(scratch_dir, f"decompose-{os.getpid()}.json")

    def _family(self, rng, d):
        while True:
            coeffs = tuple(rng.randint(-self.COEFF_MAX, self.COEFF_MAX) for _ in range(d)) + (1,)
            for _ in range(20):
                a = rng.randint(-self.A_MAX, self.A_MAX)
                if irreducible_over_Q_certified((coeffs[0] - a,) + coeffs[1:]):
                    return coeffs, a

    def warm_up(self):
        # The same input for every seed, so set-up cost does not depend on it.
        coeffs, a = self._family(random.Random(f"{self.name}:warm-up"), 4)
        self.execute((coeffs, a, 500))

    def execute(self, call):
        coeffs, a, N = call
        argv = ["decompose", "--f0=" + ",".join(map(str, coeffs)), f"--a={a}", f"--N={N}",
                "--out", self.out_path]
        status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"polylcm {' '.join(argv)} exited with {status}")
        with open(self.out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def shifts(self, call):
        return 1

    def check(self, call, report):
        coeffs, a, N = call
        echoed = (tuple(report["f0"]), report["a"], report["N"], report["irreducible"])
        if echoed != (coeffs, a, N, True):
            return f"report echoes (f0, a, N, irreducible) = {echoed}"
        names = {f.name for f in dataclasses.fields(decomp.DecompositionReport)}
        fields = {k: v for k, v in report.items() if k in names}
        fields["f0"] = IntPoly(coeffs)
        if not decomp.DecompositionReport(**fields).identity_ok():
            return "decomposition identity does not hold"
        return _check_log_L(coeffs, a, N, report["log_L"])

    def canonical(self, report):
        return _without_timings(report)


WORKLOADS = {w.name: w for w in (X3N2000, X4Sweep, ColdFamilies)}


# -- independent oracles ----------------------------------------------------


def _without_timings(report: dict) -> dict:
    # engine_timings holds wall-clock values, so it differs from run to run.
    return {k: v for k, v in report.items() if k != "engine_timings"}


def _is_cube(a: int) -> bool:
    r = round(abs(a) ** (1 / 3))
    return any(k**3 == abs(a) for k in (r - 1, r, r + 1))


def lcm_tree(values: list[int]) -> int:
    """lcm of the values by a balanced pairwise tree."""
    layer = list(values)
    while len(layer) > 1:
        paired = [math.lcm(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
        if len(layer) % 2:
            paired.append(layer[-1])
        layer = paired
    return layer[0]


def _check_log_L(coeffs, a, N, log_L):
    values = []
    for n in range(1, N + 1):
        v = 0
        for c in reversed(coeffs):
            v = v * n + c
        values.append(abs(v - a))
    expected = math.log(lcm_tree(values))
    if not math.isclose(log_L, expected, rel_tol=LOG_L_RTOL):
        return f"log_L {log_L!r}, log of the lcm tree {expected!r}"
    return None


def irreducible_over_Q_certified(coeffs: tuple[int, ...]) -> bool:
    """True when the monic polynomial (ascending coefficients) is irreducible
    modulo one of the primes below 30, which proves it irreducible over Q.
    False means only that no such prime was found."""
    return any(_irreducible_mod(coeffs, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


def _irreducible_mod(coeffs, p):
    # Distinct-degree test: no factor of degree k <= d/2 over GF(p) means
    # gcd(x^(p^k) - x, f) = 1 for every such k.
    f = [c % p for c in coeffs]
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _powmod(h, p, f, p)
        diff = h + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if len(_gcd(_trim(diff), f, p)) > 1:
            return False
    return True


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a, f, p):
    # f monic
    a = list(a)
    d = len(f) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for j in range(d + 1):
                a[top - d + j] = (a[top - d + j] - c * f[j]) % p
    return _trim(a[:d])


def _powmod(base, e, f, p):
    result, base = [1], _rem(base, f, p)
    while e:
        if e & 1:
            result = _rem(_mul(result, base, p), f, p)
        e >>= 1
        if e:
            base = _rem(_mul(base, base, p), f, p)
    return result


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _gcd(a, b, p):
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [c * inv % p for c in b]
        a, b = b, _rem(a, b, p)
    return a


def _primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _x4_value(x):
    return x**4 + x


def _x4_reducible(T):
    bound = math.isqrt(math.isqrt(T)) + 2
    return {_x4_value(n) for n in range(-bound, bound + 1) if abs(_x4_value(n)) <= T}


def _x4_root_counts(p):
    """counts[v] = #{x mod p : x^4 + x = v mod p}."""
    counts = [0] * p
    for x in range(p):
        counts[_x4_value(x) % p] += 1
    return counts


def _x4_covariance(p, q, T, reducible):
    cp, cq = _x4_root_counts(p), _x4_root_counts(q)
    kept = [a for a in range(-T, T + 1) if a not in reducible]
    return sum((cp[a % p] - 1) * (cq[a % q] - 1) for a in kept) / len(kept)


def _x4_statistic(T, N, stat, reducible):
    """Per-shift cn, dn or bad over the irreducible shifts, in ascending a."""
    primes = _primes_upto(N)
    counts = {p: _x4_root_counts(p) for p in primes}
    values = []
    for a in range(-T, T + 1):
        if a in reducible:
            continue
        disc = -27 - 256 * a**3
        total = 0.0
        for p in primes:
            if stat == "bad":
                if disc % p == 0:
                    total += _alpha(a, N, p) * math.log(p)
            elif disc % p:
                rho = counts[p][a % p]
                if stat == "cn":
                    total += rho * math.log(p) / (p - 1)
                else:
                    total += (rho - 1) * math.log(p) / p
        values.append(total)
    return values


def _alpha(a, N, p):
    # total p-adic valuation of the values x^4 + x - a for x = 1..N
    total = 0
    for x in range(1, N + 1):
        v = _x4_value(x) - a
        while v % p == 0:
            v //= p
            total += 1
    return total

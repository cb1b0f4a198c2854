"""Averaging over shifts |a| <= T with irreducibility filtering.

The averaging operator normalizes by the exact count of irreducible
shifts.  Exhaustive mode walks every a in [-T, T] and reads which shifts
are irreducible from one verdict record per family, shared by every count,
average and covariance: it covers [-T, T] for the largest T asked so far,
grows when a larger T arrives and is sliced for smaller ones, so each shift
is decided once.  The shifts a growth adds are decided together, for any
integer family, by ``polyring.irreducible_shifts``, whose pattern rows are
kept per family.  Random mode draws distinct shifts with a seeded
generator, deciding each drawn shift alone by ``irreducible_shifts`` over
the same kept pattern rows, and rejects reducible ones; the seed picks the
sample and nothing else.  Aggregation is an ordered reduction over one
float64 array of the values in ascending a, so identical inputs and seed
produce byte-identical reports.

Every statistic is a chunk function (f0, shifts, N) -> values, and
``_map_shifts`` is the one path that runs it, in-process or over strided
chunks in worker processes; ``theorem_check`` goes through it too.  Its
process pool is imported on first use, so a process that only imports the
package loads no ``multiprocessing``.  ``cn``, ``dn``, ``bad`` and ``b2``
are batched: ``_column_chunk`` reads each by name from one column record
of the chunk (``decomp._columns``), kept, one entry only, until another
(f0, shifts, N) is asked for, so the four statistics of one window share
it.  Its cn and dn come from a term pass per prime p <= N over all its
shifts when the record is built, and its bad and b2 from a level pass on
the first Bad_N read, so a cn or dn average counts no level.  An
exhaustive average hands over the admitted int64 array as it is, and the
record is keyed by its bytes; only sampled shifts
outside int64 are keyed as a tuple.  How the record reads each prime's
terms and counts Bad_N is stated once, at ``decomp._columns``.  The values
keep the bits of the single-shift ``c_N``/``e_N_d_N``/``bad_N``, and the
moments keep the bits of list loops.  The batch assumes what
admission guarantees, that every shift is irreducible (D(a) != 0 and no
integer zero).  ``delta``, ``loglratio`` and the theorem rows loop over
their chunk, one report or ledger per shift.  ``covariance_sigma`` is two
gathers: sigma(a; p) is the family RootTable's rho row (a bincount of p's
residues, at any prime the sieve's budget allows) at a mod p less one, read
for every admitted shift at once, and the products sum to an exact integer.
An exhaustive window holds one byte or int64 per shift of [-T, T], so
2T + 1 is held to ``ntkernel.SIEVE_LIMIT_MAX`` before anything is allocated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import constants, decomp, ntkernel
from .errors import EmptyEnsembleError, ResourceLimitError, WindowViolationError
from .modroots import _family_root_table, roots_mod_p
from .polyring import IntPoly, irreducible_shifts, is_irreducible_over_Q

QUANTILE_GRID = (0.05, 0.25, 0.5, 0.75, 0.95)

RANDOM_SAMPLING_CUTOFF = 10_000
DEFAULT_N_SAMPLES = 200
DEFAULT_SEED = 0x5EED_1E55_C0FFEE


@dataclass(frozen=True)
class WindowSpec:
    """Admissible (T, N) range T^(1/(d-1)) < N < T / log T."""

    T: int
    N: int
    d: int

    @property
    def lower(self) -> float:
        return self.T ** (1.0 / (self.d - 1))

    @property
    def upper(self) -> float:
        return self.T / math.log(self.T)

    @property
    def holds(self) -> bool:
        return self.lower < self.N < self.upper


@dataclass
class EnsembleStats:
    """count_total counts the shifts looked at, reducible ones included:
    2T + 1 when exhaustive, the distinct shifts drawn when random."""

    T: int
    N: int
    statistic_name: str
    count_total: int
    count_irreducible: int
    mean: float
    variance: float
    quantiles: list[tuple[float, float]]
    seed: int
    sampling: str
    n_samples: int | None = None
    f0_coeffs: tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "N": self.N,
            "statistic": self.statistic_name,
            "count_total": self.count_total,
            "count_irreducible": self.count_irreducible,
            "mean": self.mean,
            "variance": self.variance,
            "quantiles": [[q, v] for q, v in self.quantiles],
            "seed": self.seed,
            "sampling": self.sampling,
            "n_samples": self.n_samples,
            "f0": list(self.f0_coeffs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def reducible_count(f0: IntPoly, T: int) -> int:
    """Exact number of a in [-T, T] with f0 - a reducible over Q; deg f0 >= 2."""
    if f0.degree < 2:
        raise ValueError("reducible_count requires a polynomial of degree >= 2")
    return _irreducible_mask(f0.coeffs, T).count(0)


def _irreducible_mask(f0_coeffs: tuple[int, ...], T: int) -> bytes:
    # mask[a + T] == 1 iff f0 - a is irreducible, for a in [-T, T].
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    _check_window(T)
    rec = _verdict_record(f0_coeffs)
    R = len(rec) // 2  # the record covers [-R, R]
    if T > R:
        f0 = IntPoly(f0_coeffs)
        rec[:0] = irreducible_shifts(f0, -T, -R)
        rec += irreducible_shifts(f0, R + 1, T + 1)
        R = T
    return bytes(rec[R - T : R + T + 1])


def _check_window(T: int) -> None:
    # The 2T + 1 shifts of [-T, T] against the sieve's budget, read now.
    if (size := 2 * T + 1) > (limit := ntkernel.SIEVE_LIMIT_MAX):
        raise ResourceLimitError(f"2T + 1 = {size} shifts exceed budget {limit}")


def _admitted(f0: IntPoly, T: int) -> np.ndarray:
    # The irreducible shifts a in [-T, T], ascending, as int64.
    return np.flatnonzero(np.frombuffer(_irreducible_mask(f0.coeffs, T), bool)) - T


@functools.lru_cache(maxsize=8)
def _verdict_record(f0_coeffs: tuple[int, ...]) -> bytearray:
    # One family's irreducibility verdicts, starting from a = 0; the
    # bytearray grows at both ends in place as larger T arrive.
    return bytearray(irreducible_shifts(IntPoly(f0_coeffs), 0, 1))


def _sample_shifts(f0: IntPoly, T: int, n_samples: int, seed: int) -> tuple[list[int], int]:
    # Up to n_samples irreducible shifts drawn without replacement, ascending,
    # and the number of distinct shifts drawn (at most max(50 n_samples, 1000)).
    rng = random.Random(seed)
    drawn: set[int] = set()
    shifts: list[int] = []
    cap = min(max(50 * n_samples, 1000), 2 * T + 1)
    while len(shifts) < n_samples and len(drawn) < cap:
        a = rng.randint(-T, T)
        if a in drawn:
            continue
        drawn.add(a)
        if irreducible_shifts(f0, a, a + 1)[0]:
            shifts.append(a)
    return sorted(shifts), len(drawn)


def _check_inputs(f0: IntPoly, T: int, N: int, least: int) -> None:
    # A ValueError naming the first input below its least value.
    for name, value, lo in (("the degree of f0", f0.degree, 2), ("T", T, least), ("N", N, least)):
        if value < lo:
            raise ValueError(f"need {name} >= {lo}, got {value}")


def _window_warning(f0: IntPoly, T: int, N: int) -> str | None:
    # The warning of an average at (T, N) outside the admissible window, if
    # any; ensemble_average warns it and the CLI prints it as one line.
    if N < 2 or T < 3:
        return None
    win = WindowSpec(T, N, f0.degree)
    if win.holds:
        return None
    return (
        f"(T={T}, N={N}) outside the admissible window "
        f"({win.lower:.1f}, {win.upper:.1f}); averaged bounds may not apply"
    )


def _check_samples(n_samples: int) -> None:
    # Fewer than one sample would report a non-empty ensemble as empty.
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")


def _quantiles(sorted_vals: np.ndarray) -> list[tuple[float, float]]:
    out = []
    n = len(sorted_vals)
    for q in QUANTILE_GRID:
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out.append((q, float(sorted_vals[lo]) * (1 - frac) + float(sorted_vals[hi]) * frac))
    return out


def _column_chunk(
    name: str, f0: IntPoly, shifts: Sequence[int] | np.ndarray, N: int
) -> np.ndarray:
    # A batched statistic: the column of that name in the chunk's record.
    return getattr(decomp._columns(f0, shifts, N), name)


def _delta_chunk(f0: IntPoly, shifts: Sequence[int] | np.ndarray, N: int) -> list[float]:
    return [decomp.delta_N(f0, a, N) for a in map(int, shifts)]


def _loglratio_chunk(f0: IntPoly, shifts: Sequence[int] | np.ndarray, N: int) -> list[float]:
    denom = (f0.degree - 1) * N * math.log(N)
    return [decomp.decomposition_report(f0, a, N).log_L / denom for a in map(int, shifts)]


# Each statistic's chunk function (f0, shifts, N) -> one value per shift; a
# batched one is _column_chunk bound to its decomp.Columns field (picklable).
_STATISTIC_CHUNKS = {
    "bad": functools.partial(_column_chunk, "bad"),
    "b2": functools.partial(_column_chunk, "b2"),
    "delta": _delta_chunk,
    "cn": functools.partial(_column_chunk, "cn"),
    "dn": functools.partial(_column_chunk, "dn"),
    "loglratio": _loglratio_chunk,
}
STATISTICS = tuple(_STATISTIC_CHUNKS)


def _theorem_rows(f0: IntPoly, shifts: list[int], N: int) -> list[tuple[float, ...]]:
    # (log L, C_N, Bad_N, Delta_N) of each shift's report.
    reports = (decomp.decomposition_report(f0, a, N) for a in shifts)
    return [(rep.log_L, rep.c_N, rep.bad, rep.delta) for rep in reports]


def _map_shifts(
    chunk_fn, f0: IntPoly, ordered: Sequence[int] | np.ndarray, N: int, threads: int
) -> np.ndarray:
    """One float64 row per shift of ordered (ascending), in that order, from
    chunk_fn(f0, shifts, N) over ascending chunks: all in-process, or one
    strided chunk per worker process.  A value depends on its shift alone,
    so the chunking moves no bit.  chunk_fn must be picklable (module-level);
    each process reads its own family caches."""
    if threads <= 1 or len(ordered) <= 1:
        return np.asarray(chunk_fn(f0, ordered, N), dtype=float)
    # Imported on first use: the pool loads multiprocessing and some 30
    # modules with it, which only this branch needs.
    from concurrent.futures import ProcessPoolExecutor

    chunks = [ordered[i::threads] for i in range(min(threads, len(ordered)))]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        outs = list(pool.map(chunk_fn, itertools.repeat(f0), chunks, itertools.repeat(N)))
    values = np.empty((len(ordered), *np.shape(outs[0])[1:]))
    for i, out in enumerate(outs):
        values[i::threads] = out
    return values


def ensemble_average(
    f0: IntPoly,
    T: int,
    N: int,
    statistic: str,
    sampling: str = "auto",
    seed: int = DEFAULT_SEED,
    n_samples: int = DEFAULT_N_SAMPLES,
    threads: int = 1,
    return_values: bool = False,
):
    """Mean/variance/quantiles of a per-shift statistic over irreducible
    shifts |a| <= T.  Variance is the population variance of the sample."""
    _check_inputs(f0, T, N, 1)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    if statistic == "loglratio" and N < 2:
        # Its denominator (d - 1) N log N is 0 at N = 1.
        raise ValueError(f"need N >= 2 for loglratio, got {N}")
    if sampling == "auto":
        sampling = "random" if T > RANDOM_SAMPLING_CUTOFF else "exhaustive"
    if sampling not in ("exhaustive", "random"):
        raise ValueError(f"sampling must be exhaustive/random/auto, got {sampling!r}")
    if sampling == "random":
        _check_samples(n_samples)
    if message := _window_warning(f0, T, N):
        warnings.warn(message, stacklevel=2)
    if sampling == "exhaustive":
        shifts = _admitted(f0, T)
        count_total = 2 * T + 1
    else:
        shifts, count_total = _sample_shifts(f0, T, n_samples, seed)
    if not len(shifts):
        raise EmptyEnsembleError(f"no irreducible shifts for |a| <= {T}")

    values = _map_shifts(_STATISTIC_CHUNKS[statistic], f0, shifts, N, threads)
    n = len(values)
    mean = ntkernel._plain_sum(values) / n
    # As list loops: squares by libm pow like (v - mean) ** 2, not np.square;
    # each value sums from +0.0, never -0.0, so np.sort gives sorted()'s array.
    variance = ntkernel._plain_sum(np.float_power(values - mean, 2.0)) / n
    stats = EnsembleStats(
        T=T,
        N=N,
        statistic_name=statistic,
        count_total=count_total,
        count_irreducible=n,
        mean=mean,
        variance=variance,
        quantiles=_quantiles(np.sort(values)),
        seed=seed,
        sampling=sampling,
        n_samples=n_samples if sampling == "random" else None,
        f0_coeffs=f0.coeffs,
    )
    if return_values:
        return stats, list(zip(map(int, shifts), values.tolist()))
    return stats


def covariance_sigma(
    f0: IntPoly,
    p: int,
    q: int,
    T: int,
    include_reducible: bool = False,
) -> float:
    """Average of sigma(a;p) * sigma(a;q) over irreducible |a| <= T, by
    direct enumeration: sigma depends on a mod p, so each factor is one
    gather of the RootTable's rho row at the admitted shifts mod p.  Any
    primes up to ntkernel.SIEVE_LIMIT_MAX are served: a row from
    modroots.BRUTE_FORCE_LIMIT on is built for the call and not kept.
    include_reducible drops the filter, exposing the exact cancellation over
    complete residue systems mod pq."""
    for r in (p, q):
        if not ntkernel.is_prime(r):
            raise ValueError(f"p must be prime, got {r}")
    if p == q:
        raise ValueError("covariance needs distinct primes")
    d = f0.degree
    if p <= d or q <= d:
        raise ValueError(f"primes must exceed the degree {d}")
    table = _family_root_table(f0.coeffs)
    rows = [table.rho_row(r) for r in (p, q)]  # refuses p > ntkernel.SIEVE_LIMIT_MAX
    every = include_reducible or T < 0  # T < 0 admits nothing
    _check_window(T)
    admitted = np.arange(-T, T + 1, dtype=np.int64) if every else _admitted(f0, T)
    if not admitted.size:
        raise EmptyEnsembleError(f"no shifts admitted for |a| <= {T}")
    sp, sq = (row[admitted % r] - 1 for row, r in zip(rows, (p, q)))
    # An exact integer sum, so the one float division is the only rounding.
    return int((sp * sq).sum()) / admitted.size


def mean_rho(f: IntPoly, x: int) -> float:
    """(1/pi(x)) * sum over p <= x of rho_f(p); tends to 1 for irreducible f."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not is_irreducible_over_Q(f):
        raise ValueError("mean_rho requires an irreducible polynomial")
    primes = ntkernel.sieve_primes(x)
    total = sum(roots_mod_p(f, p).count for p in primes)
    return total / len(primes)


@dataclass
class TheoremReport:
    f0_coeffs: tuple[int, ...]
    T: int
    N: int
    d: int
    seed: int
    epsilon: float
    n_shifts: int
    window_lower: float
    window_upper: float
    window_holds: bool
    fraction_ratio_within_epsilon: float
    fraction_cn_within_band: float
    fraction_bad_within_band: float
    fraction_delta_within_band: float
    median_ratio: float
    mean_ratio: float

    def to_dict(self) -> dict:
        return {
            "f0": list(self.f0_coeffs),
            "T": self.T,
            "N": self.N,
            "d": self.d,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "n_shifts": self.n_shifts,
            "window": {
                "lower": self.window_lower,
                "upper": self.window_upper,
                "holds": self.window_holds,
            },
            "fractions": {
                "ratio_within_epsilon": self.fraction_ratio_within_epsilon,
                "cn_within_band": self.fraction_cn_within_band,
                "bad_within_band": self.fraction_bad_within_band,
                "delta_within_band": self.fraction_delta_within_band,
            },
            "median_ratio": self.median_ratio,
            "mean_ratio": self.mean_ratio,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def theorem_check(
    f0: IntPoly,
    T: int,
    N: int,
    n_samples: int = DEFAULT_N_SAMPLES,
    seed: int = DEFAULT_SEED,
    epsilon: float = 0.5,
    override_window: bool = False,
    threads: int = 1,
) -> TheoremReport:
    """Desk-scale check of log L_a(N) ~ (d-1) N log N over sampled
    irreducible shifts, with per-component bands for C_N, Bad_N, Delta_N."""
    _check_inputs(f0, T, N, 2)
    _check_samples(n_samples)
    d = f0.degree
    win = WindowSpec(T, N, d)
    if not win.holds and not override_window:
        raise WindowViolationError(
            f"N = {N} outside ({win.lower:.1f}, {win.upper:.1f}) for T = {T}, d = {d}"
            " (pass override_window=True, or --override-window, to force)"
        )
    if T > RANDOM_SAMPLING_CUTOFF:
        shifts, _ = _sample_shifts(f0, T, n_samples, seed)
    else:
        shifts = _admitted(f0, T).tolist()
        if len(shifts) > n_samples:
            rng = random.Random(seed)
            shifts = sorted(rng.sample(shifts, n_samples))
    if not shifts:
        raise EmptyEnsembleError(f"no irreducible shifts for |a| <= {T}")
    rows = _map_shifts(_theorem_rows, f0, shifts, N, threads).tolist()

    n = len(rows)
    denom = (d - 1) * N * math.log(N)
    lnln = math.log(math.log(N))
    ratios = sorted(r[0] / denom for r in rows)
    frac_ratio = sum(1 for v in ratios if abs(v - 1) < epsilon) / n
    frac_cn = (
        sum(1 for r in rows if abs(r[1] - math.log(N)) <= constants.THEOREM_CN_BAND * lnln) / n
    )
    frac_bad = sum(1 for r in rows if r[2] <= constants.THEOREM_BAD_BAND * N * lnln) / n
    frac_delta = sum(1 for r in rows if r[3] <= constants.THEOREM_DELTA_BAND * N * lnln) / n
    mid = (n - 1) / 2
    median = (ratios[int(math.floor(mid))] + ratios[int(math.ceil(mid))]) / 2
    return TheoremReport(
        f0_coeffs=f0.coeffs,
        T=T,
        N=N,
        d=d,
        seed=seed,
        epsilon=epsilon,
        n_shifts=n,
        window_lower=win.lower,
        window_upper=win.upper,
        window_holds=win.holds,
        fraction_ratio_within_epsilon=frac_ratio,
        fraction_cn_within_band=frac_cn,
        fraction_bad_within_band=frac_bad,
        fraction_delta_within_band=frac_delta,
        median_ratio=median,
        mean_ratio=ntkernel._plain_sum(ratios) / n,
    )

"""Command-line surface.

Subcommands: primes, decompose, ensemble, theorem, weil, roots.
Polynomials are given as ascending comma-separated coefficients
("0,2,0,1" is x^3 + 2x).  Defaults for --seed/--threads/--samples can be
overridden through POLYLCM_SEED / POLYLCM_THREADS / POLYLCM_SAMPLES.
The parser is built once, on the first ``build_parser`` call, and kept;
``build_parser`` reads these defaults on every call, so a malformed one is
a usage error for every subcommand.  The seed picks which shifts ensemble
and theorem sample; every other command is exact and takes none.  --p of
weil and roots must be prime.

Exit codes: 0 success, 2 usage error (a ValueError, an OSError such as an
unwritable --out or --csv-out path, or any package error without a code of
its own), 3 internal consistency violation (the decomposition identity or
another exact cross-check failed), 4 irreducibility required, 5 empty
ensemble, 6 internal bound violation.
Each of these errors is one "error: ..." line on stderr, not a traceback;
an ensemble outside the admissible window is one "warning: ..." line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import decomp, ensemble, modroots, ntkernel
from .errors import (
    EmptyEnsembleError,
    InternalConsistencyError,
    IrreducibilityRequiredError,
    PolylcmError,
)
from .polyring import IntPoly, ShiftedPoly

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IDENTITY = 3
EXIT_IRREDUCIBILITY = 4
EXIT_EMPTY_ENSEMBLE = 5
EXIT_BOUND_VIOLATION = 6


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(f"POLYLCM_{name}")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"POLYLCM_{name} must be an integer, got {raw!r}") from None


def _poly_arg(text: str) -> IntPoly:
    try:
        return IntPoly.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# The parser and its sampled subparsers, built by the first build_parser call.
_TREE: tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]] | None = None


def build_parser() -> argparse.ArgumentParser:
    """The module's one parser, built on the first call, its
    --seed/--threads/--samples defaults read from the POLYLCM_* environment
    now."""
    global _TREE
    if _TREE is None:
        _TREE = _parser_tree()
    parser, sampled = _TREE
    defaults = {
        "samples": _env_int("SAMPLES", ensemble.DEFAULT_N_SAMPLES),
        "seed": _env_int("SEED", ensemble.DEFAULT_SEED),
        "threads": _env_int("THREADS", os.cpu_count() or 1),
    }
    for p in sampled:
        p.set_defaults(**defaults)
    return parser


def _parser_tree() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    # The parser, and the subparsers whose defaults come from the environment.
    parser = argparse.ArgumentParser(
        prog="polylcm",
        description="Exact lcm of shifted polynomial sequences and its decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sampled = []

    p = sub.add_parser("primes", help="sieve primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--show", action="store_true", help="print the table itself")

    p = sub.add_parser("decompose", help="full decomposition report for one shift")
    p.add_argument("--f0", type=_poly_arg, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--allow-reducible", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("ensemble", help="average a statistic over irreducible shifts")
    p.add_argument("--f0", type=_poly_arg, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--stat", required=True, choices=ensemble.STATISTICS)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--sampling", choices=("auto", "exhaustive", "random"), default="auto"
    )
    p.add_argument("--threads", type=int)
    p.add_argument("--csv-out", default=None, help="write per-shift values as CSV")
    p.add_argument("--out", default=None)
    sampled.append(p)

    p = sub.add_parser("theorem", help="desk-scale growth check over sampled shifts")
    p.add_argument("--f0", type=_poly_arg, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--override-window", action="store_true")
    p.add_argument("--threads", type=int)
    p.add_argument("--out", default=None)
    sampled.append(p)

    p = sub.add_parser("weil", help="complete exponential sums and the Weil bound")
    p.add_argument("--f0", type=_poly_arg, required=True)
    p.add_argument("--p", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", type=int, default=None)
    group.add_argument("--all-b", action="store_true")
    p.add_argument("--strict", action="store_true", help="warn when p <= degree")

    p = sub.add_parser("roots", help="roots of f0 - a modulo p (or p^k)")
    p.add_argument("--f0", type=_poly_arg, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)

    return parser, sampled


def _cmd_primes(args) -> int:
    table = ntkernel.sieve_primes(args.limit)
    print(len(table))
    if args.show:
        print(",".join(str(p) for p in table))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    report = decomp.decomposition_report(
        args.f0, args.a, args.N, allow_reducible=args.allow_reducible
    )
    if args.format == "json":
        _write_out(report.to_json(), args.out)
    else:
        _write_out(decomp.CSV_HEADER + "\n" + report.csv_row(), args.out)
    return EXIT_OK


def _cmd_ensemble(args) -> int:
    with warnings.catch_warnings():
        # The window warning is printed below as one line.
        warnings.filterwarnings("ignore", r"\(T=\d+, N=\d+\) outside the admissible window")
        stats, pairs = ensemble.ensemble_average(
            args.f0,
            args.T,
            args.N,
            args.stat,
            sampling=args.sampling,
            seed=args.seed,
            n_samples=args.samples,
            threads=max(1, args.threads),
            return_values=True,
        )
    if message := ensemble._window_warning(args.f0, args.T, args.N):
        print(f"warning: {message}", file=sys.stderr)
    # The CSV is written first, so an unwritable one leaves stdout and --out
    # untouched, and an unwritable --out leaves a complete CSV.
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(f"a,{args.stat}\n")
            for a, v in pairs:
                fh.write(f"{a},{v!r}\n")
    _write_out(stats.to_json(), args.out)
    return EXIT_OK


def _cmd_theorem(args) -> int:
    report = ensemble.theorem_check(
        args.f0,
        args.T,
        args.N,
        n_samples=args.samples,
        seed=args.seed,
        epsilon=args.epsilon,
        override_window=args.override_window,
        threads=max(1, args.threads),
    )
    if not report.window_holds:
        print("warning: outside the admissible (T, N) window", file=sys.stderr)
    _write_out(report.to_json(), args.out)
    return EXIT_OK


def _cmd_weil(args) -> int:
    f0, p = args.f0, args.p
    d = f0.degree
    if args.strict and p <= d:
        print(f"warning: p = {p} <= degree {d}; the (d-1)sqrt(p) bound is not asserted",
              file=sys.stderr)
    if args.all_b:
        sums = enumerate(modroots.weil_sums(f0, p)[1:].tolist(), 1)
    else:
        sums = [(args.b, modroots.weil_sum(f0, args.b, p))]
    bound = modroots.weil_bound(d, p)
    violation = False
    for b, s in sums:
        mag = abs(s)
        margin = bound - mag
        print(f"b={b} |S|={mag:.5f} bound={bound:.5f} margin={margin:.5f}")
        if p > d and 1 <= b < p and margin < 0:
            violation = True
    if violation:
        print("error: Weil bound violated (internal bug)", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _cmd_roots(args) -> int:
    f = ShiftedPoly(args.f0, args.a)
    rs = modroots.roots_mod_pk(f, args.p, args.k)
    print(json.dumps({
        "p": rs.p, "k": rs.k, "modulus": rs.modulus,
        "count": rs.count, "roots": list(rs.roots),
    }, sort_keys=True))
    return EXIT_OK


_DISPATCH = {
    "primes": _cmd_primes,
    "decompose": _cmd_decompose,
    "ensemble": _cmd_ensemble,
    "theorem": _cmd_theorem,
    "weil": _cmd_weil,
    "roots": _cmd_roots,
}


# The typed errors with an exit code of their own; every other PolylcmError,
# every ValueError and every OSError is a usage error.
_EXIT_CODES = {
    InternalConsistencyError: EXIT_IDENTITY,
    IrreducibilityRequiredError: EXIT_IRREDUCIBILITY,
    EmptyEnsembleError: EXIT_EMPTY_ENSEMBLE,
}


def main(argv: list[str] | None = None) -> int:
    try:
        # build_parser reads the POLYLCM_* defaults, so a malformed one is a usage error.
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (PolylcmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = (code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        return next(codes, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())

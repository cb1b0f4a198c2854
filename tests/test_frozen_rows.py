"""Frozen outputs of the paths that read a family's residue rows.

C_N, D_N, Bad_N's masks and the sigma covariances read each family's rows
at a mod p (its RootTable and the term rows kept with it), on both sides
of BRUTE_FORCE_LIMIT, and the column record counts Bad_N's levels on both
sides of decomp._LEVEL_TABLE_LIMIT.  Each case pins the exact output such
a path gives, as a SHA-256 or a repr: the column record's four fields
(read bad first and cn first, since bad and b2 are built on the first
Bad_N read), covariances, counts, three CLI commands' stdout, and theorem
and ensemble JSON.  A change to where the rows are kept or how they are
built must leave every one of them as it is.
"""

import hashlib
import warnings

import numpy as np
import pytest

from polylcm import cli, decomp, modroots, polyring
from polylcm.ensemble import (
    _admitted,
    covariance_sigma,
    ensemble_average,
    mean_rho,
    reducible_count,
    theorem_check,
)
from polylcm.polyring import IntPoly, ShiftedPoly, is_irreducible_over_Q

X3 = IntPoly((0, 0, 0, 1))
X4X = IntPoly((0, 1, 0, 0, 1))
X3_2X_1 = IntPoly((1, 2, 0, 1))
X3_NON_MONIC = IntPoly((1, 1, 0, 2))  # 2x^3 + x + 1

# Three irreducible shifts of x^3 + 2x + 1 past int64: the object path.
BIG_SHIFTS = [10**25 + 1, 10**25 + 2, 10**25 + 4]


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


COLUMN_CASES = [
    (X4X, lambda: _admitted(X4X, 1100), 50,
     "99a0c5617c7ed1f987b2c5343894337b641e8a9ddcd221537314b27fc07766be"),
    # N past BRUTE_FORCE_LIMIT: the last primes read transient term rows.
    (X4X, lambda: [3, -7, 11, 20, -40], modroots.BRUTE_FORCE_LIMIT + 100,
     "93ba866e4f6c33d344538967fd62ba28c2db0a635a26b2ad1297b0cd7400372e"),
    (X3_2X_1, lambda: BIG_SHIFTS, 60,
     "25e51cedc55626c9671b088d5d608548cda4aa4abf46ca2702193b2acc919304"),
    (X3_NON_MONIC, lambda: _admitted(X3_NON_MONIC, 1100), 50,
     "5f3739b53da40bbe8f68ac30cffd5795f28d37d3c911b43a7b3aaa1f2249c570"),
]
COLUMN_IDS = [
    "x4x-exhaustive", "x4x-across-the-limit", "cubic-object-shifts", "non-monic-exhaustive"
]


def _record_shas(f0, shifts, N):
    # The bytes of bad, b2, cn and dn, in that order, of a record built from
    # cold caches, by the field read first: bad, whose read runs the level
    # pass, or cn, which the record builds with itself.
    shas = {}
    for first in ("bad", "cn"):
        for cache in (decomp._column_record, modroots._family_root_table, polyring._disc_family):
            cache.cache_clear()
        record = decomp._columns(f0, shifts, N)
        getattr(record, first)
        shas[first] = _sha(b"".join(column.tobytes() for column in record))
    return shas


@pytest.mark.parametrize("f0, shifts, N, digest", COLUMN_CASES, ids=COLUMN_IDS)
def test_column_record_bytes(f0, shifts, N, digest):
    assert _record_shas(f0, shifts(), N) == {"bad": digest, "cn": digest}


@pytest.mark.parametrize("limit", [0, 2**16], ids=["every-level-sorted", "tables-to-2^16"])
@pytest.mark.parametrize("f0, shifts, N, digest", COLUMN_CASES, ids=COLUMN_IDS)
def test_column_record_bytes_either_side_of_the_level_table_limit(
    f0, shifts, N, digest, limit, monkeypatch
):
    # Bad_N's levels are counted from residue-count tables up to the limit
    # and from sorted residues above it; the same hits give the same bytes.
    monkeypatch.setattr(decomp, "_LEVEL_TABLE_LIMIT", limit)
    assert _record_shas(f0, shifts(), N) == {"bad": digest, "cn": digest}


def test_big_shifts_are_admissible():
    # The object-path batch is one the ensembles would admit.
    assert all(is_irreducible_over_Q(ShiftedPoly(X3_2X_1, a).to_poly()) for a in BIG_SHIFTS)
    assert min(BIG_SHIFTS) > np.iinfo(np.int64).max


@pytest.mark.parametrize(
    "p, q, include_reducible, want",
    [
        (11, 13, False, "-0.007759014148790507"),
        (17, 19, False, "-0.005476951163852123"),
        (11, 31, False, "0.0013692377909630307"),
        (11, 13, True, "-0.0013630168105406633"),
        (7, 29, True, "0.001817355747387551"),
    ],
)
def test_covariance_sigma(p, q, include_reducible, want):
    assert repr(covariance_sigma(X4X, p, q, 1100, include_reducible)) == want


def test_reducible_count_and_mean_rho():
    assert reducible_count(X4X, 1100) == 10
    assert repr(mean_rho(IntPoly((-2, 0, 0, 1)), 3000)) == "0.9930232558139535"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["primes", "--limit", "100", "--show"],
         "4ecc9384e0fd4e637d4cedd49d7f86342bc8ed95aaeccb37060efc4dc1e8af69"),
        (["weil", "--f0", "0,0,0,1", "--p", "7", "--all-b"],
         "0b601281beb176e2a94c512c523fc2031a7dce486dcb9f8c9dc9825c68545d34"),
        (["roots", "--f0", "0,0,0,1", "--a", "1", "--p", "7", "--k", "2"],
         "228c2e5176c9633b04f0e431d3a8d1a582f199a83470be8c7f5dfbb1f9aba2a6"),
    ],
    ids=["primes", "weil", "roots"],
)
def test_cli_stdout(argv, digest, capsys):
    assert cli.main(argv) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_theorem_json():
    report = theorem_check(X3, 2000, 100, n_samples=20)
    assert _sha(report.to_json()) == (
        "6dd53c934bde90893e049ef7a6ca665249d77be74ade6c32fbcbf9f2d5bb8f7d"
    )


@pytest.mark.parametrize(
    "f0, stat, T, N, kw, digest",
    [
        (X3, "delta", 300, 30, {"sampling": "exhaustive"},
         "417033b21463e753d0fa24df68c1210a0ba4ca8a44ed0147565f13ac936bdcf8"),
        (X3, "loglratio", 200_000, 500, {"sampling": "random", "n_samples": 30},
         "1a962f0cfcdc4b82cc2264a83d22db60554fffc4d474638d0d512031d26e87ae"),
        (X4X, "delta", 300, 30, {"sampling": "exhaustive"},
         "70e7ef96a852d64631b32f873f65dd21679fd710e901f20ccab96f6dc1e38d1b"),
        (X4X, "loglratio", 200_000, 500, {"sampling": "random", "n_samples": 30},
         "fe2e6ff44c63aecbdd4466d4dbdb051fdb184727c5c79da245e57b91e835c0cd"),
        (X3_NON_MONIC, "delta", 300, 30, {"sampling": "exhaustive"},
         "fb3fe5363222b878c29b5f6f78513f63c6c99bc28d9bcdf0aa4a5d8bf2a81b69"),
        (X3_NON_MONIC, "loglratio", 200_000, 500, {"sampling": "random", "n_samples": 30},
         "84686b0652002ea4f327c1bb44f973482ee288dee760ce556ca7ea33a8e0399e"),
    ],
    ids=["delta", "loglratio", "x4x-delta", "x4x-loglratio", "non-monic-delta",
         "non-monic-loglratio"],
)
def test_single_process_ensemble_json(f0, stat, T, N, kw, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # each (T, N) is inside its window
        stats = ensemble_average(f0, T, N, stat, **kw)
    assert _sha(stats.to_json()) == digest

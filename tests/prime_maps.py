"""The complete prime map of a valuation ledger, for tests.

A ledger keeps the unshared parts of its cofactors unfactored, as the
program never needs their primes.  Tests that compare whole maps factor
them here with ``ntkernel.factor``: trial division is too slow for the
cofactors of degree-5 families.  Unlike ``oracles``, this module uses the
package.
"""

from __future__ import annotations

from polylcm import ntkernel
from polylcm.valengine import ValuationLedger


def prime_map(ledger: ValuationLedger) -> dict[int, int]:
    """prime -> exponent over every prime of the ledger, ``rest`` included.
    A ``rest`` entry shares no prime with any other entry or with
    ``factored``, so its exponents are the ledger's."""
    out = dict(ledger.factored)
    for c in ledger.rest:
        out.update(ntkernel.factor(c).factors)
    return out

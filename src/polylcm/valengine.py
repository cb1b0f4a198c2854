"""Exact valuation ledgers for the sequence f_a(1), ..., f_a(N).

alpha_p = total p-adic valuation of the product of the values;
beta_p  = maximum valuation among the values (the exponent of p in the lcm).

Each value |f_a(n)| is evaluated once, with the zero check
(``_abs_value_array``): one numpy Horner pass in int64 when B = sum
|c_i(f_a)| N**i fits, every partial sum being bounded by B, else in exact
Python ints (``polyring._horner_values``, which ``decomp._column_record``
and the ``RootTable`` rows also read).  The ledgers and the log P sum read
that one array.  Small primes (p <= N) are handled by root-sieving
(``_root_sieve``): the n with p | f_a(n) lie in the residue classes of
the roots of f_a mod p, and every (p, root) pair with p <= N comes from
one scan of the family's ``RootTable`` (``RootTable.roots_upto``), so
only those positions are ever divided.  The sieve is array work over all
positions at once, on the int64 values (dtype=object past int64): each
position is divided by p once unchecked, since its (p, root) pair proves
p | f_a(n), and one divide loop finds the rest of its valuation e;
alpha_p and beta_p are the sum and the max of e over p's positions, and
each value is divided by the p**e of its positions.  Whatever is left of
each value afterwards is a cofactor with all prime factors > N.  One
batch GCD over these cofactors gives g_i = gcd(c_i, prod_{j != i} c_j)
for every cofactor.  It builds the balanced pairwise product tree up to
the root's two children (``_product_tree``, which
``ValuationLedger.product()`` also takes) and walks it down by sibling
gcds, each layer one ``map`` of ``operator.mul`` or ``math.gcd``: each
node's h = gcd(node, product of the leaves outside it) comes from its
parent's h times gcd(left, right), since for every prime q,
min(v_q(child), v_q(h) + v_q(sibling)) is unchanged when the sibling is
replaced by gcd(left, right).  No node is divided by another.  A prime of
c_i divides g_i exactly when another cofactor holds it, so only the c_i
with g_i > 1 are visited and only g_i is factored: a g_i > 1 and <= N^2
is prime (its primes all exceed N), a larger one goes to ``is_prime``,
and only a composite g_i goes to ``factor``.
What is left of c_i after its shared primes, the whole c_i when g_i = 1,
shares no prime: its primes have alpha_p = beta_p, so the ledgers keep it
unfactored, and the report reads it through ``product()`` up to the
cross-check limit and by its log above it.

Where the batch GCD runs: a ``decomp.decomposition_report`` up to
``CROSS_CHECK_LIMIT`` also runs the lcm oracle, and the two big-int halves
share no data until the gate compares them, so the report sends (f0, a, N)
to a helper process (``_GcdHelper``) right after its zero check.  The
helper is a fork of the reporting process; it evaluates, root-sieves and
batch-GCDs the cofactors by the same functions (``_shared_of``) and
replies with the count of cofactors > 1 and the pairs (i, g_i) with
g_i > 1, which the report hands to ``build_ledgers`` as ``_shared`` when it
reads the ledgers, last, after the lcm oracle and its other terms.  A
count that differs from build_ledgers' own raises InternalConsistencyError.
Above the limit no oracle runs beside the batch GCD, and a process that
may run on one CPU only has no second core to run it on, so neither starts
a helper; there, in ``delta_N`` and in any direct call, build_ledgers runs
the batch GCD in-process.

``alpha_p``, ``beta_p`` and ``alpha_approx_residual`` at a single prime lift
the roots mod p level by level instead (``_level_hits``), evaluating no
value.  Any vanishing value f_a(n) = 0 is a hard error: every quantity here
is undefined at such n.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import signal
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import ntkernel
from .errors import InternalConsistencyError, ZeroValueError
from .modroots import _family_root_table, _lifted_levels, roots_mod_p
from .polyring import IntPoly, ShiftedPoly, _coeff_bound, _family_discriminant, _horner_values


@dataclass
class ValuationLedger:
    """The prime-keyed part of a ledger, plus the unshared cofactor parts.

    ``factored`` maps each prime <= N that divides a value, and each prime
    > N that divides two values (a shared prime), to its exponent.  ``rest``
    holds, unfactored, the part of each cofactor that is left after its
    shared primes: the entries are pairwise coprime and share no prime with
    ``factored``.  Each of their primes exceeds N, divides one value only
    and has exponent alpha_p = beta_p = its exponent there, so the alpha and
    beta ledgers of one build share one ``rest``.
    """

    factored: dict[int, int]
    rest: tuple[int, ...]

    def product(self) -> int:
        leaves = [*map(pow, self.factored, self.factored.values()), *self.rest]
        return math.prod(_product_tree(leaves)[-1])


def _product_tree(xs: list[int]) -> list[list[int]]:
    # The layers of the balanced pairwise product tree over xs, leaves
    # first: operands of similar size, so the products stay sub-quadratic.
    # It stops at the root's two children (at xs itself for two leaves or
    # fewer); whoever needs the root multiplies them.
    tree = [xs]
    while len(tree[-1]) > 2:
        layer = tree[-1]
        pairs = list(map(operator.mul, layer[::2], layer[1::2]))
        tree.append(pairs + layer[-1:] if len(layer) % 2 else pairs)
    return tree


def _count_in_class(N: int, r: int, m: int) -> int:
    # |{1 <= n <= N : n == r (mod m)}| for 0 <= r < m
    if r == 0:
        return N // m
    if r > N:
        return 0
    return (N - r) // m + 1


def _level_hits(poly: IntPoly, N: int, p: int, roots: tuple[int, ...]) -> Iterator[int]:
    # |{n <= N : p**k | poly(n)}| for k = 1, 2, ..., lifting the roots mod p
    # one level at a time, up to the first level that no n <= N reaches:
    # the counts can only fall as k grows, so every later one is 0.  Above
    # the coefficient bound sum |c_i| N**i, p**k exceeds every |poly(n)|,
    # so a level still reached there holds the zeros of poly on [1, N].
    bound = _coeff_bound(poly.coeffs, N)
    pk = p
    for level in _lifted_levels(poly, p, roots):
        hits = sum(_count_in_class(N, r, pk) for r in level)
        if not hits:
            return
        if pk > bound:
            raise ZeroValueError(min(r for r in level if 1 <= r <= N))
        yield hits
        pk *= p


def alpha_p(f: ShiftedPoly, N: int, p: int) -> int:
    """alpha_p(a; N) = sum over n <= N of nu_p(f_a(n)), via the root sieve:
    level-k roots of f mod p**k each contribute their lattice count."""
    return sum(_level_hits(f.to_poly(), N, p, roots_mod_p(f, p).roots))


def beta_p(f: ShiftedPoly, N: int, p: int) -> int:
    """beta_p(N) = max over n <= N of nu_p(f_a(n))."""
    # Every level yielded is reached by some n <= N, so beta_p is their number.
    return sum(1 for _ in _level_hits(f.to_poly(), N, p, roots_mod_p(f, p).roots))


def build_ledgers(
    f: ShiftedPoly,
    N: int,
    *,
    _values: np.ndarray | None = None,
    _roots: tuple[np.ndarray, np.ndarray] | None = None,
    _shared: tuple[int, list[tuple[int, int]]] | None = None,
) -> tuple[ValuationLedger, ValuationLedger, list[int]]:
    """The (alpha, beta) ledgers of f on [1, N] (see ``ValuationLedger``),
    plus the cofactor list (one per n: the part of |f(n)| left after
    removing primes <= N).  Only the shared primes of the cofactors are
    factored (``_split_shared``).  The roots mod p come from the family's
    shared table.  ``_values`` is the caller's ``_abs_value_array(f, N)``,
    not modified, ``_roots`` its ``roots_upto(f.shift, N)`` scan of a
    table of f's family, and ``_shared`` the helper's reply for (f, N)
    (``_GcdHelper``), in place of the batch GCD here; a reply whose count
    of cofactors > 1 is not this one's raises InternalConsistencyError."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    values = _abs_value_array(f, N) if _values is None else _values.copy()
    if _roots is None:
        _roots = _family_root_table(f.base.coeffs).roots_upto(f.shift, N)
    alpha, beta = _root_sieve(values, N, *_roots)
    cofactors = values.tolist()
    rest = list(filter((1).__lt__, cofactors))
    count, pairs = _shared_pairs(rest) if _shared is None else _shared
    if count != len(rest):
        raise InternalConsistencyError(f"helper saw {count} cofactors > 1, not {len(rest)}")
    # Only a cofactor with g > 1 is split; rest keeps the cofactor order.
    for i, g in pairs:
        shared, rest[i] = _split_shared(rest[i], g, N)
        for q, e in shared:
            alpha[q] = alpha.get(q, 0) + e
            if e > beta.get(q, 0):
                beta[q] = e
    unshared = tuple(filter((1).__lt__, rest))
    return ValuationLedger(alpha, unshared), ValuationLedger(beta, unshared), cofactors


def _root_sieve(
    values: np.ndarray, N: int, primes: np.ndarray, roots: np.ndarray
) -> tuple[dict[int, int], dict[int, int]]:
    """(alpha, beta) at the primes p <= N, ascending, from the (p, root)
    pairs of ``RootTable.roots_upto``, sorted by p.  Every position n <= N
    with n = root (mod p) is divided by p at once, one loop over all
    positions, and values (|f(1)|, ..., |f(N)|, int64 or object) is left
    holding the cofactors: each |f(n)| over the p**e of its positions.
    alpha_p sums and beta_p maxes the e of p's positions; p is listed when
    it has a root, and then it divides some value, as root < p <= N."""
    if not len(primes):
        return {}, {}
    first = np.where(roots > 0, roots, primes)  # the least n >= 1 of each class
    counts = (N - first) // primes + 1
    offsets = np.cumsum(counts) - counts  # where each pair's positions begin
    pair = np.repeat(np.arange(len(primes)), counts)
    n = first[pair] + (np.arange(len(pair)) - offsets[pair]) * primes[pair]
    p = primes[pair].astype(values.dtype)
    v = values[n - 1] // p  # p | f(n) at every position: n = root (mod p)
    e = np.ones(len(n), dtype=np.int64)
    live = np.arange(len(n))
    while live.size:
        live = live[v[live] % p[live] == 0]
        v[live] //= p[live]
        e[live] += 1
    np.floor_divide.at(values, n - 1, p**e)
    head = np.flatnonzero(np.diff(primes, prepend=0))  # each prime's first pair
    heads = offsets[head]
    ps = primes[head].tolist()
    alpha = dict(zip(ps, np.add.reduceat(e, heads).tolist()))
    beta = dict(zip(ps, np.maximum.reduceat(e, heads).tolist()))
    return alpha, beta


def _shared_gcds(cs: list[int]) -> list[int]:
    """g_i = gcd(c_i, prod_{j != i} c_j) for each c_i (batch GCD).

    Over the product tree of the c_i, every node gets h = gcd(node, product
    of the leaves outside it): h(root) = 1, and at a leaf h is g_i.  For
    children L, R of a node, m = h(node) * gcd(L, R) gives h(L) = gcd(L, m)
    and h(R) = gcd(R, m).  Proof, for each prime q with v = v_q: v(h(child))
    = min(v(child), v(outside(node)) + v(sibling)) = min(v(child),
    v(h(node)) + v(sibling)), since h(node) differs from outside(node) only
    where both are at least v(child); and the sibling enters only through a
    minimum capped by v(child), so gcd(L, R) may stand in for it.  An odd
    node carried up unpaired is its own parent, so m = h there.  No node is
    divided by another: one gcd of the two halves per node, then one gcd of
    each child against the small m.  The root itself is never formed.
    """
    hs = [1]
    for layer in reversed(_product_tree(cs)):
        lefts, rights = layer[::2], layer[1::2]
        ms = list(map(operator.mul, hs, map(math.gcd, lefts, rights)))
        if len(layer) % 2:
            ms.append(hs[-1])
        hs = layer.copy()  # children 2j and 2j + 1 read their parent's m_j
        hs[::2] = map(math.gcd, lefts, ms)
        hs[1::2] = map(math.gcd, rights, ms)
    return hs


def _shared_pairs(rest: list[int]) -> tuple[int, list[tuple[int, int]]]:
    # What build_ledgers reads of the batch GCD over the cofactors > 1: their
    # count, and the (i, g_i) with g_i > 1 in ascending i.
    gs = _shared_gcds(rest)
    return len(rest), [(i, g) for i, g in enumerate(gs) if g > 1]


def _shared_of(f0_coeffs: tuple[int, ...], a: int, N: int) -> tuple[int, list[tuple[int, int]]]:
    # The helper's work for one request: build_ledgers' value pass, root
    # sieve and batch GCD for f0 - a on [1, N], by the same functions.
    values = _abs_value_array(ShiftedPoly(IntPoly(f0_coeffs), a), N)
    _root_sieve(values, N, *_family_root_table(f0_coeffs).roots_upto(a, N))
    return _shared_pairs(list(filter((1).__lt__, values.tolist())))


class _GcdHelper:
    """A forked process that runs ``_shared_of`` for the reports of the
    process that started it, ``owner``, while that process runs the lcm
    oracle.  A request (seq, f0 coefficients, a, N) is written to the pipe
    and then announced by one post of the wake semaphore: a pipe write that
    wakes a reader hints the kernel to run it on the writer's CPU, and
    signalled that way some runs spent 1.5 ms a send; a semaphore post
    carries no such hint, so the helper wakes on the idle CPU when there is
    one.  Each reply (seq, count, pairs) echoes its request's seq, so a
    reply left unread by a report that raised is skipped.

    The helper is forked, not spawned, so it starts in milliseconds with
    the package imported, and it runs the package as it stood then, at the
    owner's first request: a function patched later is patched in the
    owner only.  It is a daemon, so its owner's exit ends it, and it leaves
    within a second of its owner being killed.  Only the owner may touch
    it (a Process method checks the PID), so a forked pool worker starts
    its own."""

    def __init__(self) -> None:
        # Imported on first use, so that importing the package starts no
        # multiprocessing machinery.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.owner = os.getpid()
        self.closed = False
        self._sent = 0
        self._conn, theirs = ctx.Pipe()
        self._wake = ctx.Semaphore(0)
        self._process = ctx.Process(
            target=_serve, args=(theirs, self._wake, self.owner), daemon=True
        )
        self._process.start()
        theirs.close()  # the helper's end is then open in the helper alone

    def request(self, f: ShiftedPoly, N: int) -> Callable[[], tuple[int, list[tuple[int, int]]]]:
        """Send (f, N) and return the call that waits for its reply."""
        self._sent += 1
        seq = self._sent
        with self._failing():
            self._conn.send((seq, f.base.coeffs, f.shift, N))
            self._wake.release()

        def reply() -> tuple[int, list[tuple[int, int]]]:
            with self._failing():
                while True:
                    got, count, pairs = self._conn.recv()
                    if got == seq:
                        return count, pairs

        return reply

    @contextlib.contextmanager
    def _failing(self) -> Iterator[None]:
        # A dead helper shows as a broken or closed pipe, and an interrupted
        # send or receive leaves the pipe mid-message: either way this helper
        # is closed, so the next request starts another.
        try:
            yield
        except BaseException as exc:
            self.close()
            if isinstance(exc, (OSError, EOFError)):
                raise InternalConsistencyError("the batch GCD helper process is gone") from exc
            raise

    def close(self) -> None:
        self.closed = True
        self._conn.close()
        self._process.terminate()
        self._process.join()


def _serve(conn, wake, owner: int) -> None:
    # The helper's loop: one reply per wake-up, until the owner is gone.
    # An interrupt is the owner's to handle: a helper it ended would fail
    # the owner's next report.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        if wake.acquire(timeout=1.0):
            seq, *request = conn.recv()
            conn.send((seq, *_shared_of(*request)))
        elif os.getppid() != owner:
            return


_helper: _GcdHelper | None = None


def _request_shared(
    f: ShiftedPoly, N: int
) -> Callable[[], tuple[int, list[tuple[int, int]]]] | None:
    """Send (f, N) to this process's helper, started on first use, and
    return the call that waits for its reply, ``build_ledgers``' ``_shared``.
    A dead helper raises InternalConsistencyError, from here or from the
    call, and the next request starts a new one.  A process that may run
    on one CPU only gets None and no helper: there the helper's duplicate
    value pass, sieve and family table would share that CPU with the
    report (with the helper under ``taskset -c 0``, x3-N2000 ran 10% and
    cold-families 18% fewer shifts a second)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    global _helper
    if _helper is None or _helper.owner != os.getpid() or _helper.closed:
        _helper = _GcdHelper()
    return _helper.request(f, N)


def _split_shared(c: int, g: int, N: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """(the shared primes of c with their exponents, the unshared part u of c)
    for a cofactor c whose primes all exceed N, with g = gcd(c, prod_{j != i}
    c_j) > 1.  A prime of c divides g exactly when another cofactor holds
    it, so only g is factored: g <= N**2 is prime, a larger g is tested by
    is_prime, and only a composite g goes to factor.  Each exponent comes
    from dividing c; what is left, u, is coprime to g and stays unfactored."""
    primes = (g,) if g <= N * N or ntkernel.is_prime(g) else ntkernel.factor(g).primes()
    out = []
    for q in primes:
        e = 0
        while c % q == 0:
            c //= q
            e += 1
        out.append((q, e))
    return tuple(out), c


def _abs_value_array(f: ShiftedPoly, N: int) -> np.ndarray:
    """|f(1)|, ..., |f(N)| as one int64 array while the coefficient bound
    fits, else dtype=object; raises ZeroValueError at the first f(n) = 0."""
    coeffs = f.to_poly().coeffs
    fits = _coeff_bound(coeffs, N) <= np.iinfo(np.int64).max
    values = _horner_values(coeffs, N, np.int64 if fits else object)
    zeros = np.flatnonzero(values == 0)
    if zeros.size:
        raise ZeroValueError(int(zeros[0]) + 1)
    return np.abs(values)


def _abs_values(f: ShiftedPoly, N: int) -> list[int]:
    """[|f(1)|, ..., |f(N)|] as Python ints; raises ZeroValueError at the
    first f(n) = 0."""
    return _abs_value_array(f, N).tolist()


def log_P(f: ShiftedPoly, N: int) -> float:
    """log P_a(N) = sum over n <= N of ln |f_a(n)|, ascending."""
    return ntkernel._plain_sum(map(math.log, _abs_values(f, N)))


def alpha_approx_residual(f: ShiftedPoly, N: int, p: int) -> float:
    """alpha_p(N) - N * rho(a; p) / (p - 1); small when Hensel lifting is
    clean, i.e. requires p to not divide disc(f_a)."""
    roots = roots_mod_p(f, p).roots  # checks first that p is prime
    if _family_discriminant(f.base, f.shift) % p == 0:
        raise ValueError(f"p = {p} divides the discriminant")
    alpha = sum(_level_hits(f.to_poly(), N, p, roots))
    return alpha - N * len(roots) / (p - 1)

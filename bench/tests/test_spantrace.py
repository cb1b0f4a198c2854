"""Tests of the benchmark's span tracer and of the independent oracles its
output checks rely on."""

import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spantrace  # noqa: E402
import workloads  # noqa: E402
from polylcm import cli, decomp, ensemble, modroots, polyring, valengine  # noqa: E402
from polylcm.polyring import IntPoly, ShiftedPoly  # noqa: E402

X3 = IntPoly((0, 0, 0, 1))


def _spans_named(tracer, name):
    return [i for i in range(tracer.n_spans) if tracer.span_name(i) == name]


LIMIT = decomp.CROSS_CHECK_LIMIT


@pytest.mark.parametrize("N, expected", [(LIMIT, 1), (LIMIT + 1, 0)])
def test_one_lcm_bigint_span_only_up_to_the_cross_check_limit(N, expected):
    with spantrace.SpanTracer() as tracer:
        decomp.decomposition_report(X3, 2, N)
    assert len(_spans_named(tracer, "decomp.decomposition_report")) == 1
    assert len(_spans_named(tracer, "decomp.lcm_bigint")) == expected


def _subtree(tracer, root):
    # Spans are stored in start order: the subtree is a contiguous run.
    members = [root]
    for i in range(root + 1, tracer.n_spans):
        if tracer.parent[i] not in members:
            break
        members.append(i)
    return members


def test_self_times_under_a_root_span_sum_to_its_duration():
    with spantrace.SpanTracer() as tracer:
        decomp.decomposition_report(X3, 5, 300)
        ensemble.covariance_sigma(IntPoly((0, 1, 0, 0, 1)), 11, 13, 50)
    roots = [i for i in range(tracer.n_spans) if tracer.parent[i] == -1]
    assert [tracer.span_name(r) for r in roots] == [
        "decomp.decomposition_report", "ensemble.covariance_sigma"
    ]
    self_times = tracer.self_times()
    for root in roots:
        members = _subtree(tracer, root)
        assert len(members) > 1
        assert all(self_times[i] >= 0 for i in members)
        assert math.fsum(self_times[i] for i in members) == pytest.approx(
            tracer.duration(root), rel=1e-9, abs=1e-12
        )
    assert sum(len(_subtree(tracer, r)) for r in roots) == tracer.n_spans


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "polylcm" or name.startswith("polylcm."):
            out.update({(name, attr): obj for attr, obj in vars(mod).items() if callable(obj)})
    out.update({("RootTable", attr): obj for attr, obj in vars(modroots.RootTable).items()})
    return out


def test_every_patched_attribute_is_the_original_again(tmp_path):
    before = _bindings()
    with pytest.raises(RuntimeError, match="leave the block"):
        with spantrace.SpanTracer() as tracer:
            assert decomp.build_ledgers is valengine.build_ledgers
            assert decomp.build_ledgers is not before[("polylcm.valengine", "build_ledgers")]
            assert ensemble.roots_mod_p is modroots.roots_mod_p
            assert ensemble.roots_mod_p is not before[("polylcm.modroots", "roots_mod_p")]
            assert modroots.RootTable.roots is not before[("RootTable", "roots")]
            out = tmp_path / "report.json"
            argv = ["decompose", "--f0=0,0,0,1", "--a=2", "--N=60", "--out", str(out)]
            assert cli.main(argv) == 0
            raise RuntimeError("leave the block")
    assert _spans_named(tracer, "cli.main") and _spans_named(tracer, "modroots.RootTable.roots")
    assert tracer.counters["valengine.build_ledgers.cofactors_gt1"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_lcm_tree_matches_the_gcd_chain():
    for a in (2, -7, 1234):
        values = [abs(n**3 - a) for n in range(1, 301)]
        assert workloads.lcm_tree(values) == decomp.lcm_bigint(ShiftedPoly(X3, a), 300)


def test_certified_irreducible_inputs_are_irreducible():
    rng = random.Random(7)
    certified = 0
    for _ in range(150):
        d = rng.randint(3, 6)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(d)) + (1,)
        if workloads.irreducible_over_Q_certified(coeffs):
            certified += 1
            assert polyring.is_irreducible_over_Q(IntPoly(coeffs))
    assert certified > 50
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) and x^3 - 8 have no certificate.
    assert not workloads.irreducible_over_Q_certified((4, 0, 0, 0, 1))
    assert not workloads.irreducible_over_Q_certified((-8, 0, 0, 1))


def test_x4_closed_forms_match_the_library():
    f0 = IntPoly(workloads.X4Sweep.F0)
    T = 300
    assert len(workloads._x4_reducible(T)) == ensemble.reducible_count(f0, T)
    for a in (-5, 3, 17):
        assert polyring.discriminant(ShiftedPoly(f0, a).to_poly()) == -27 - 256 * a**3

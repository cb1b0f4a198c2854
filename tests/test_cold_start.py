"""A new process pays only for what it uses: importing the package and its
CLI loads no process pool and builds no argument parser, and the
ensembles' shift pool is imported on first use, with the in-process result.
The reports' batch GCD helper (``valengine._GcdHelper``) keeps its rules:
it is owned by the process that started it, ends with it, matches each
reply to its request and fails loudly, never by hanging.  Each check runs
in a fresh interpreter, so no module an earlier test imported can hide a
load and no helper outlives its test."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh(code: str) -> str:
    # Run code in a new interpreter that imports polylcm from this checkout.
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_process_pool():
    out = _fresh(
        "import sys, json, polylcm, polylcm.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent'))))"
    )
    assert json.loads(out) == []


def test_pool_on_first_use_gives_the_in_process_json():
    out = _fresh(
        "from polylcm.ensemble import ensemble_average\n"
        "from polylcm.polyring import IntPoly\n"
        "f0 = IntPoly((0, 1, 0, 0, 1))\n"
        "for threads in (2, 1):\n"
        "    stats = ensemble_average(f0, 300, 30, 'cn', sampling='exhaustive', threads=threads)\n"
        "    print(stats.to_json())"
    )
    pooled, in_process = out.splitlines()
    assert pooled == in_process
    assert json.loads(pooled)["count_irreducible"] > 0


def test_cli_import_builds_no_parser():
    # The argparse tree is built by the first build_parser call, not at import.
    out = _fresh(
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import polylcm.cli\n"
        "print(len(built))\n"
        "parser = polylcm.cli.build_parser()\n"
        "assert parser is polylcm.cli.build_parser() and len(built) > 1\n"
    )
    assert out.split() == ["0"]


def _alive(pid: int) -> bool:
    # A zombie counts as gone: it runs nothing and holds no memory.
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


# The prelude of every helper check: x^3 - a reports at N = 300, whose
# helper PID helper_pid() reads.
_HELPER_PRELUDE = (
    "from polylcm import decomp, valengine\n"
    "from polylcm.polyring import IntPoly\n"
    "f0 = IntPoly((0, 0, 0, 1))\n"
    "report = lambda a, N=300: decomp.decomposition_report(f0, a, N).to_json()\n"
    "helper_pid = lambda: valengine._helper._process.pid\n"
)


def _one_cpu() -> bool:
    return not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2


class TestGcdHelper:
    @pytest.fixture(autouse=True)
    def _linux(self):
        if not os.path.isdir("/proc/self") or _one_cpu():
            pytest.skip("reads process states from /proc and needs two CPUs")

    def test_no_helper_above_the_cross_check_limit(self):
        out = _fresh(
            _HELPER_PRELUDE
            + "import sys\n"
            "report(2, decomp.CROSS_CHECK_LIMIT + 1)\n"
            "print(valengine._helper is None, 'multiprocessing' in sys.modules)\n"
        )
        assert out.split() == ["True", "False"]

    def test_no_helper_on_one_cpu(self):
        # Pinned to one CPU, a report keeps its batch GCD in-process, with
        # the same JSON.
        code = (
            _HELPER_PRELUDE
            + "import os, sys\n"
            "if pin:\n"
            "    os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])\n"
            "print(report(2))\n"
            "print(valengine._helper is None, 'multiprocessing' in sys.modules)\n"
        )
        pinned, flags = _fresh("pin = True\n" + code).splitlines()
        free, _ = _fresh("pin = False\n" + code).splitlines()
        assert pinned == free and flags.split() == ["True", "False"]

    def test_helper_ends_with_its_interpreter(self):
        out = _fresh(_HELPER_PRELUDE + "report(2)\nprint(helper_pid())\n")
        pid = int(out)
        assert pid != os.getpid() and not _alive(pid)

    def test_helper_leaves_soon_after_its_owner_is_killed(self):
        code = _HELPER_PRELUDE + "report(2)\nprint(helper_pid(), flush=True)\ninput()\n"
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        owner = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        try:
            pid = int(owner.stdout.readline())
            assert _alive(pid)
        finally:
            owner.kill()
            owner.communicate(timeout=60)
        deadline = time.monotonic() + 30
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)

    def test_pool_workers_start_their_own_helpers(self):
        # The parent's helper runs before the pools fork; each worker must
        # start its own, and every output equals the in-process one.
        out = _fresh(
            _HELPER_PRELUDE
            + "from polylcm.ensemble import ensemble_average, theorem_check\n"
            "report(2)\n"
            "for threads in (2, 1):\n"
            "    stats = ensemble_average(f0, 300, 30, 'loglratio', sampling='exhaustive',"
            " threads=threads)\n"
            "    print(stats.to_json())\n"
            "    print(theorem_check(f0, 300, 30, n_samples=40, threads=threads).to_json())\n"
        )
        pooled_average, pooled_theorem, average, theorem = out.splitlines()
        assert (pooled_average, pooled_theorem) == (average, theorem)
        assert json.loads(average)["count_irreducible"] > 500

    def test_a_reply_left_unread_is_skipped(self):
        # A report that raises between its request and its reply leaves that
        # reply in the pipe; the next report must read its own.
        out = _fresh(
            _HELPER_PRELUDE
            + "cold = report(-7, 280)\n"
            "lcm = decomp.lcm_bigint\n"
            "def fail(f, N):\n"
            "    raise RuntimeError('oracle failed')\n"
            "decomp.lcm_bigint = fail\n"
            "for a in (2, 5):\n"
            "    try:\n"
            "        report(a)\n"
            "    except RuntimeError:\n"
            "        pass\n"
            "decomp.lcm_bigint = lcm\n"
            "print(report(-7, 280) == cold)\n"
        )
        assert out.split() == ["True"]

    def test_a_dead_helper_fails_the_next_report_only(self, tmp_path):
        # The report after the helper's death raises InternalConsistencyError
        # (a CLI exit of 3), and the one after it starts a new helper.
        out = _fresh(
            _HELPER_PRELUDE
            + "import os, signal\n"
            "from polylcm import cli\n"
            "from polylcm.errors import InternalConsistencyError\n"
            "first = report(2)\n"
            "def kill():\n"
            "    pid = helper_pid()\n"
            "    os.kill(pid, signal.SIGKILL)\n"
            "    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)\n"
            "    return pid\n"
            "killed = kill()\n"
            "try:\n"
            "    report(2)\n"
            "except InternalConsistencyError:\n"
            "    print('raised')\n"
            "print(report(2) == first, helper_pid() != killed)\n"
            "kill()\n"
            "argv = ['decompose', '--f0=0,0,0,1', '--a=2', '--N=300', '--out',"
            f" {str(tmp_path / 'r.json')!r}]\n"
            "print(cli.main(argv), cli.main(argv))\n"
        )
        assert out.split() == ["raised", "True", "True", "3", "0"]

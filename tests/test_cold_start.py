"""A new process pays only for what it uses: importing the package and its
CLI loads no process pool and builds no argument parser, and the one
parallel path imports its pool on first use, with the in-process result.
Each check runs in a fresh interpreter, so no module an earlier test
imported can hide a load."""

import json
import os
import subprocess
import sys
from pathlib import Path

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

"""Tests of the repository benchmark itself.

Run them with ``python3 -m pytest perfbench/check_perfbench.py``.  The file
name keeps them out of the repository's tier-1 collection: the smoke run
launches servers for about a minute.

``test_smoke`` runs ``run.py --smoke``: every workload at tiny sizes, end to
end and traced.  The smoke mode asserts that every metric of BENCHMARK.json
is emitted with its unit, that the oracle gate passed with no errors, and
that each traced run recorded a span of every layer it should exercise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def test_smoke():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")


def test_refuses_to_run_without_the_program(tmp_path):
    # A directory holding only the benchmark: no result, non-zero exit.
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

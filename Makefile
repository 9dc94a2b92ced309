PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test docs-check bench bench-quick bench-smoke

# Tier-1 verification: the full test suite (includes the benchmark runner's
# quick run and the docs-check gate).
test:
	$(PYTHON) -m pytest -x -q

# Documentation gate: fails when a public class (or module) in src/repro
# lacks a docstring, a *_many batch method does not state its amortised
# complexity, a public kernel function exists in one backend but not the
# other, the ARCHITECTURE.md backend-contract table drifts from
# kernel.KERNEL_CONTRACT, README.md, docs/API.md or docs/ARCHITECTURE.md
# backticks a class name that no repro module defines, or they cite a
# BENCH.json row as `case.name` that BENCH.json does not hold.  Also run as
# part of `make test`.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docstrings.py

# The benchmark runner at full size: every figure README.md, docs/ and
# ROADMAP.md cite, written to BENCH.json at the repo root.
bench:
	$(PYTHON) benchmarks/run.py

# The runner at small sizes: prints the rows, writes nothing.  Tier-1 runs
# the same quick run (tests/integration/test_bench_runner.py).
bench-quick:
	$(PYTHON) benchmarks/run.py --quick

# Smoke run of the repository benchmark (perfbench/run.py --smoke: every
# workload at tiny sizes, end to end and traced, every BENCHMARK.json metric
# emitted, the oracle gate passed).  Kept out of tier-1 collection because it
# launches servers for about half a minute; CI runs it on the numpy leg.
bench-smoke:
	$(PYTHON) -m pytest -q perfbench/check_perfbench.py

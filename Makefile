PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test chaos examples lint lint-engine typecheck verify-plans bench-smoke bench bench-e2e bench-pairs bench-guard code-lines

## Tier-1 gate: typecheck plus the full unit + benchmark-assertion suite.
check: typecheck
	$(PYTHON) -m pytest -x -q

## Static lint: ruff (skipped with a notice when not installed) plus the
## AST-based engine-contract linter (RP4xx rules ruff cannot express).
lint: lint-engine
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping lint (pip install ruff)"; \
	fi

## Engine-contract linter: chunk-path purity, law conditions, operator
## name/properties pairing, the division key-column seam.  Pure stdlib —
## always runs.
lint-engine:
	$(PYTHON) scripts/lint_engine.py

## Strict typing gate for src/repro/analysis, src/repro/api and
## src/repro/views (scoped in mypy.ini); skipped with a notice when mypy
## is not installed.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --config-file mypy.ini src/repro/analysis src/repro/api src/repro/views; \
	else \
		echo "mypy not installed — skipping typecheck (pip install mypy)"; \
	fi

## Statically verify every paper workload across all division algorithms
## (no execution; exit 1 on any error finding).
verify-plans:
	$(PYTHON) -m repro check --all-workloads

## Unit tests only (skips the benchmarks directory).
test:
	$(PYTHON) -m pytest tests -x -q

## Run every script under examples/; fails on the first that exits non-zero.
examples:
	@for script in examples/*.py; do \
		echo "$$script"; \
		$(PYTHON) "$$script" >/dev/null || { echo "FAILED: $$script"; exit 1; }; \
	done

## Chaos suite: the deterministic fault-injection sweep (every storage and
## spill fault point x every division algorithm x 1 and 4 partitions) plus
## the atomic-save and corrupted-store tests.  Proves the fail-stop
## contract: under injected faults a query either returns the
## bit-identical quotient or raises a documented typed error — never a
## wrong answer.
chaos:
	$(PYTHON) -m pytest tests/faults \
		tests/storage/test_atomic_save.py tests/storage/test_corrupted_store.py -q

## Benchmark smoke: run every benchmark once with timing disabled (every
## parity assertion runs; no same-run gate is timed).
bench-smoke:
	$(PYTHON) -m pytest benchmarks -q --benchmark-disable

## Full timed benchmark run: every scenario, plus every same-run gate of
## benchmarks/gates.py, each listed with its measured ratio at the end.
bench:
	$(PYTHON) -m pytest benchmarks -q

## End-to-end + per-layer benchmark (BENCHMARK.json): every workload,
## untraced and traced, every metric printed by name and unit.
bench-e2e:
	$(PYTHON) -m bench

## A speed claim: alternating parent/change runs of one workload (ten
## counted pairs after one unused warm-up pair) and the house-rule verdict,
## e.g. `make bench-pairs WORKLOAD=divide_mem PARENT=HEAD~1`.
WORKLOAD ?= divide_mem
PARENT ?= HEAD~1
PAIRS ?= 10
bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS)

## Every end-to-end metric's median against the parent's and its BENCHMARK.json
## bound, e.g. `make bench-guard WORKLOAD=view_churn PAIRS=3`.
bench-guard:
	$(PYTHON) scripts/bench_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS) --bounds

## Code lines of src/ and scripts/ (no blank lines, comments or
## docstrings): the line delta a change reports.
code-lines:
	$(PYTHON) scripts/code_lines.py

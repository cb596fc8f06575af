PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test chaos lint lint-engine typecheck verify-plans bench-smoke bench bench-e2e

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

## Statically verify every paper workload across all algorithm/worker
## configurations (no execution; exit 1 on any error finding).
verify-plans:
	$(PYTHON) -m repro check --all-workloads

## Unit tests only (skips the benchmarks directory).
test:
	$(PYTHON) -m pytest tests -x -q

## Chaos suite: the deterministic fault-injection sweep (every registered
## fault point x every division algorithm x worker counts) plus the
## supervision, atomic-save and corrupted-store tests.  Proves the
## fail-stop contract: under injected faults a query either returns the
## bit-identical quotient or raises a documented typed error — never a
## wrong answer.
chaos:
	$(PYTHON) -m pytest tests/faults tests/physical/test_pool_supervision.py \
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

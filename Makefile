PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test chaos lint lint-engine typecheck verify-plans bench-smoke bench bench-e2e bench-record bench-compare bench-parallel bench-storage bench-ivm bench-faults

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

## Benchmark smoke: run every benchmark once with timing disabled.
bench-smoke:
	$(PYTHON) -m pytest benchmarks -q --benchmark-disable

## Full timed benchmark run.
bench:
	$(PYTHON) -m pytest benchmarks -q

## End-to-end + per-layer benchmark (BENCHMARK.json): every workload,
## untraced and traced, every metric printed by name and unit.
bench-e2e:
	$(PYTHON) -m bench

## Record the division and storage microbenchmarks to the committed
## baseline files.  Refuses to run with uncommitted changes anywhere the
## timings depend on (sources, benchmarks, the compare script, this
## Makefile): a baseline recorded against a dirty tree cannot be
## reproduced from the commit it lands in.
bench-record:
	@if ! git diff --quiet -- src benchmarks scripts Makefile || ! git diff --cached --quiet -- src benchmarks scripts Makefile; then \
		echo "bench-record: src/, benchmarks/, scripts/ or the Makefile has uncommitted changes;"; \
		echo "commit (or stash) them first so the baseline matches a commit."; \
		exit 1; \
	fi
	$(PYTHON) -m pytest benchmarks/test_bench_division_algorithms.py -q \
		--benchmark-json=BENCH_division.json
	$(PYTHON) -m pytest benchmarks/test_bench_storage.py -q \
		--benchmark-json=BENCH_storage.json
	$(PYTHON) -m pytest benchmarks/test_bench_ivm.py -q \
		--benchmark-json=BENCH_ivm.json
	$(PYTHON) -m pytest benchmarks/test_bench_faults.py -q \
		--benchmark-json=BENCH_faults.json

## Rerun the division microbenchmarks and fail on >25% relative regression
## against the committed BENCH_division.json (hardware-normalized).
bench-compare:
	$(PYTHON) scripts/bench_compare.py

## Time serial vs partition-parallel execution on the large (>=100k
## tuple) division and join scenarios and fail when the planner's pick
## between the two is >1.2x slower than the faster arm; WORKERS picks the
## pool size (default 2).
WORKERS ?= 2
bench-parallel:
	$(PYTHON) scripts/bench_compare.py --parallel $(WORKERS)

## Compare full-scan vs zone-map-skipping and fullscan-ANALYZE vs
## metadata-ANALYZE on stored tables (same-run timings, >=5x gates).
bench-storage:
	$(PYTHON) scripts/bench_compare.py --storage

## Compare delta-maintained views vs recompute-per-edit on the churn
## workload (same-run per-edit timings, >=10x gate), and a single-row edit
## and the rewrite right after it at 20k vs 200k tuples (<=2x gates).
bench-ivm:
	$(PYTHON) scripts/bench_compare.py --ivm

## Compare checksummed vs checksums=False table files (one layout) and the
## disarmed fault-point query path (same-run timings, <=5% overhead gate).
bench-faults:
	$(PYTHON) scripts/bench_compare.py --faults

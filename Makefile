PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test lint bench bench-serve bench-features \
	bench-resilience bench-explore bench-place bench-net \
	bench-predict e2e help

help:
	@echo "make verify         - tier-1 gate: full test + benchmark suite (-x -q)"
	@echo "make test           - fast tier: unit/integration tests only"
	@echo "make lint           - ruff check (syntax + pyflakes rules)"
	@echo "make bench          - time flow stages, write benchmarks/out/BENCH_flow.json"
	@echo "make bench-serve    - serving bench, write benchmarks/out/BENCH_serve.json"
	@echo "make bench-features - feature-extraction bench, write benchmarks/out/BENCH_features.json"
	@echo "make bench-resilience - resilient-serving load bench (clean vs faulted), write benchmarks/out/BENCH_resilience.json"
	@echo "make bench-explore  - what-if sweep + autotuner bench, write benchmarks/out/BENCH_explore.json"
	@echo "make bench-place    - placer bench (center vs analytic vs loop reference), write benchmarks/out/BENCH_place.json"
	@echo "make bench-net      - TCP serving-edge bench (clean / wire faults / hot-swap / drain), write benchmarks/out/BENCH_net.json"
	@echo "make bench-predict  - compiled-kernel vs object-walk + pool throughput bench, write benchmarks/out/BENCH_predict.json"
	@echo "make e2e            - repo benchmark: one 15 s whatif_cold run (seed 1, untraced); see e2ebench/README.md"

verify:
	$(PYTHON) -m pytest -x -q

test:
	$(PYTHON) -m pytest tests -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping (pip install ruff)"; \
	fi

bench:
	$(PYTHON) benchmarks/perf/run_bench.py

bench-serve:
	$(PYTHON) benchmarks/perf/run_bench.py --serve

bench-features:
	$(PYTHON) benchmarks/perf/run_bench.py --features --repeat 3

bench-resilience:
	$(PYTHON) benchmarks/perf/run_bench.py --resilience

bench-explore:
	$(PYTHON) benchmarks/perf/run_bench.py --explore

bench-place:
	$(PYTHON) benchmarks/perf/run_bench.py --place --repeat 3

bench-net:
	$(PYTHON) benchmarks/perf/run_bench.py --net

bench-predict:
	$(PYTHON) benchmarks/perf/run_bench.py --predict --repeat 3 --requests 240

e2e:
	python3 e2ebench/run.py --workload whatif_cold --seed 1 --seconds 15 --trace 0

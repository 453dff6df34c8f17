PYTHON ?= python

.PHONY: install test coverage lint bench bench-smoke examples figures serve-smoke chaos-smoke replay-smoke obs-smoke fleet-smoke tournament-smoke campaign-smoke perfbench-smoke clean

install:
	pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing \
		--cov-fail-under=70

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-smoke:
	$(PYTHON) -m repro bench --smoke --check --json benchmarks/BENCH_core.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/characterize_and_deploy.py
	$(PYTHON) examples/temperature_study.py
	$(PYTHON) examples/ecc_comparison.py
	$(PYTHON) examples/distribution_explorer.py
	$(PYTHON) examples/figure_gallery.py
	$(PYTHON) examples/ssd_trace_simulation.py

figures:
	$(PYTHON) -m repro figure fig13
	$(PYTHON) -m repro figure table1 --kind qlc

serve-smoke:
	$(PYTHON) -m repro serve --smoke --seed 1 --requests 300

chaos-smoke:
	$(PYTHON) -m repro chaos --smoke --seed 1 --workers 2

replay-smoke:
	$(PYTHON) -m repro replay --trace tests/data/msr_sample.csv --smoke \
		--batch --workers 2 --json .replay-smoke.json

obs-smoke:
	$(PYTHON) -m repro replay --synthetic hm_0 --smoke --seed 1 \
		--obs-trace .obs-smoke-trace.jsonl \
		--obs-spans .obs-smoke-spans.jsonl \
		--obs-prom .obs-smoke-metrics.prom
	$(PYTHON) -m repro stats .obs-smoke-trace.jsonl
	$(PYTHON) -m repro spans .obs-smoke-spans.jsonl --check --top 1

fleet-smoke:
	$(PYTHON) -m repro fleet --smoke --seed 1 --workers 2 \
		--json .fleet-smoke.json

tournament-smoke:
	$(PYTHON) -m repro tournament --smoke --check --workers 2 \
		--json .tournament-smoke.json

campaign-smoke:
	$(PYTHON) -m repro campaign --smoke --workers 2 \
		--json .campaign-smoke.json

# run.py exits 0 even when a digest mismatches, so the last stdout line
# (the JSON summary) must say "correct": true
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload replay-read-hot --seed 0 \
		--seconds 5 --trace 0 > .perfbench-smoke.txt
	tail -n 1 .perfbench-smoke.txt | $(PYTHON) -c \
		"import json, sys; r = json.loads(sys.stdin.read()); \
		print('perfbench correct:', r['correct']); \
		sys.exit(r['correct'] is not True)"

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

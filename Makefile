PYTHON ?= python

.PHONY: install test coverage lint bench examples figures paper-digests serve-smoke chaos-smoke replay-smoke obs-smoke fleet-smoke tournament-smoke campaign-smoke simulate-smoke perfbench-smoke clean

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

# re-record benchmarks/paper_digests.json (the exact paper results) from
# the committed tree only, so every pin belongs to one commit
paper-digests:
	@test -z "$$(git status --porcelain)" || { \
		echo "paper-digests: commit or stash your changes first" >&2; \
		git status --short >&2; exit 1; }
	REPRO_RECORD_PAPER_DIGESTS=1 $(PYTHON) -m pytest benchmarks/ -q \
		--benchmark-disable

serve-smoke:
	$(PYTHON) -m repro serve --smoke --seed 1 --requests 300

chaos-smoke:
	$(PYTHON) -m repro chaos --smoke --seed 1 --workers 2 \
		--obs-spans .chaos-smoke-spans.jsonl
	$(PYTHON) -m repro spans .chaos-smoke-spans.jsonl --check --top 0

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
		--frontends hm_0 usr_0 --json .tournament-smoke.json

campaign-smoke:
	$(PYTHON) -m repro campaign --smoke --workers 2 \
		--json .campaign-smoke.json

simulate-smoke:
	$(PYTHON) -m repro simulate --workloads hm_0 usr_0 --requests 600

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

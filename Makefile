PYTHON ?= python

.PHONY: install test coverage lint bench examples figures paper-digests serve-smoke chaos-smoke replay-smoke obs-smoke fleet-smoke tournament-smoke campaign-smoke simulate-smoke perfbench-smoke perf-ab clean

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

EXAMPLES = quickstart characterize_and_deploy temperature_study ecc_comparison \
	distribution_explorer figure_gallery ssd_trace_simulation

# every script is deterministic: its stdout must match its golden under
# tests/golden/examples/ byte for byte (a run's output is kept in
# .examples-out/; copy it over the golden to re-record an intended change)
examples:
	@mkdir -p .examples-out
	@for name in $(EXAMPLES); do \
		echo "examples/$$name.py"; \
		$(PYTHON) examples/$$name.py > .examples-out/$$name.txt || exit 1; \
		diff -u tests/golden/examples/$$name.txt .examples-out/$$name.txt \
			|| exit 1; \
	done

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

# the serve and simulate smokes are deterministic: stdout must equal its
# golden under tests/golden/ byte for byte (re-record by copying the
# run's output over the golden)
serve-smoke:
	$(PYTHON) -m repro serve --smoke --seed 1 --requests 300 \
		> .serve-smoke.txt
	diff -u tests/golden/serve_smoke.txt .serve-smoke.txt

chaos-smoke:
	$(PYTHON) -m repro chaos --smoke --seed 1 --workers 2 \
		--obs-spans .chaos-smoke-spans.jsonl
	$(PYTHON) -m repro spans .chaos-smoke-spans.jsonl --check --top 0

# --scale 100 compresses the sample's arrivals enough that reads co-queue;
# the smoke fails unless batched scheduling formed at least one batch
replay-smoke:
	$(PYTHON) -m repro replay --trace tests/data/msr_sample.csv --smoke \
		--batch --scale 100 --workers 2 --json .replay-smoke.json
	$(PYTHON) -c "import json, sys; \
		b = json.load(open('.replay-smoke.json'))['service']['batch']; \
		print('replay batches:', b['batches']); \
		sys.exit(not b['batches'] > 0)"

obs-smoke:
	$(PYTHON) -m repro replay --synthetic hm_0 --smoke --seed 1 \
		--obs-trace .obs-smoke-trace.jsonl \
		--obs-spans .obs-smoke-spans.jsonl \
		--obs-prom .obs-smoke-metrics.prom
	$(PYTHON) -m repro stats .obs-smoke-trace.jsonl
	$(PYTHON) -m repro spans .obs-smoke-spans.jsonl --check --top 1

# each grid smoke also runs at --workers 1 and fails unless that report's
# JSON and span file are byte-identical to the --workers 2 ones
fleet-smoke:
	$(PYTHON) -m repro fleet --smoke --seed 1 --workers 2 \
		--obs-spans .fleet-smoke-spans.jsonl --json .fleet-smoke.json
	$(PYTHON) -m repro fleet --smoke --seed 1 --workers 1 \
		--obs-spans .fleet-smoke-spans-w1.jsonl --json .fleet-smoke-w1.json
	cmp .fleet-smoke.json .fleet-smoke-w1.json
	cmp .fleet-smoke-spans.jsonl .fleet-smoke-spans-w1.jsonl

tournament-smoke:
	$(PYTHON) -m repro tournament --smoke --check --workers 2 \
		--frontends hm_0 usr_0 --obs-spans .tournament-smoke-spans.jsonl \
		--obs-trace .tournament-smoke-trace.jsonl \
		--json .tournament-smoke.json
	$(PYTHON) -m repro tournament --smoke --workers 1 \
		--frontends hm_0 usr_0 --obs-spans .tournament-smoke-spans-w1.jsonl \
		--obs-trace .tournament-smoke-trace-w1.jsonl \
		--json .tournament-smoke-w1.json
	cmp .tournament-smoke.json .tournament-smoke-w1.json
	cmp .tournament-smoke-spans.jsonl .tournament-smoke-spans-w1.jsonl
	$(PYTHON) -m repro spans .tournament-smoke-spans.jsonl --check --top 0
	$(PYTHON) -m repro stats .tournament-smoke-trace.jsonl

campaign-smoke:
	$(PYTHON) -m repro campaign --smoke --workers 2 \
		--obs-spans .campaign-smoke-spans.jsonl \
		--obs-trace .campaign-smoke-trace.jsonl \
		--json .campaign-smoke.json
	$(PYTHON) -m repro campaign --smoke --workers 1 \
		--obs-spans .campaign-smoke-spans-w1.jsonl \
		--obs-trace .campaign-smoke-trace-w1.jsonl \
		--json .campaign-smoke-w1.json
	cmp .campaign-smoke.json .campaign-smoke-w1.json
	cmp .campaign-smoke-spans.jsonl .campaign-smoke-spans-w1.jsonl
	$(PYTHON) -m repro spans .campaign-smoke-spans.jsonl --check --top 0
	$(PYTHON) -m repro stats .campaign-smoke-trace.jsonl

simulate-smoke:
	$(PYTHON) -m repro simulate --workloads hm_0 usr_0 --requests 600 \
		> .simulate-smoke.txt
	diff -u tests/golden/simulate_smoke.txt .simulate-smoke.txt
	$(PYTHON) -m repro simulate --trace tests/data/msr_sample.csv \
		--requests 600 > .simulate-trace-smoke.txt
	diff -u tests/golden/simulate_trace_smoke.txt .simulate-trace-smoke.txt

# run.py exits 0 even when a digest mismatches, so the last stdout line
# (the JSON summary) of each run must say "correct": true; the read-hot
# run covers cache, scrubber and batching, the write-gc run FTL writes,
# GC migration and the broker's read pricing, and the tournament and
# campaign runs pin every retry policy's measured profile
PERFBENCH_CORRECT = $(PYTHON) -c \
	"import json, sys; r = json.loads(sys.stdin.read()); \
	print('perfbench correct:', r['correct']); \
	sys.exit(r['correct'] is not True)"

perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload replay-read-hot --seed 0 \
		--seconds 5 --trace 0 > .perfbench-smoke.txt
	tail -n 1 .perfbench-smoke.txt | $(PERFBENCH_CORRECT)
	$(PYTHON) perfbench/run.py --workload replay-write-gc --seed 0 \
		--seconds 5 --trace 0 > .perfbench-smoke.txt
	tail -n 1 .perfbench-smoke.txt | $(PERFBENCH_CORRECT)
	$(PYTHON) perfbench/run.py --workload tournament-tlc --seed 0 \
		--seconds 5 --trace 0 > .perfbench-smoke.txt
	tail -n 1 .perfbench-smoke.txt | $(PERFBENCH_CORRECT)
	$(PYTHON) perfbench/run.py --workload campaign-qlc --seed 0 \
		--seconds 5 --trace 0 > .perfbench-smoke.txt
	tail -n 1 .perfbench-smoke.txt | $(PERFBENCH_CORRECT)

# alternating perfbench pairs, PARENT=<rev> against the work tree, each
# from a clean copy in a temporary directory (see tools/perf_ab.py)
perf-ab:
	@test -n "$(PARENT)" || { echo "perf-ab: set PARENT=<rev>" >&2; exit 1; }
	$(PYTHON) tools/perf_ab.py --parent $(PARENT)

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks .examples-out
	find . -name __pycache__ -type d -exec rm -rf {} +

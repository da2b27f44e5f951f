PYTHON ?= python
export PYTHONPATH := src

# All smoke/demo artifacts land here: one upload path for CI, one ignore
# entry for git, one `rm -rf` to reset.
SMOKE := .repro_cache/smoke

.PHONY: test test-fast test-resilience campaign-demo store-smoke prune-smoke \
	sim-equivalence dist-smoke bench lint lint-self ruff tables

test:            ## full test suite
	$(PYTHON) -m pytest

test-fast:       ## skip the slow end-to-end tests
	$(PYTHON) -m pytest -m "not slow"

test-resilience: ## kill/resume campaign tests, with a faulthandler hang guard
	$(PYTHON) -m pytest tests/fi -p faulthandler -o faulthandler_timeout=300

campaign-demo:   ## interrupted + resumed campaign (crash-recovery demo)
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/campaign-demo.jsonl $(SMOKE)/campaign-demo.jsonl.telemetry
	$(PYTHON) -m repro.fi run --target msp430-fib --sampled 12 --limit 5 \
		--journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi status --journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi resume --journal $(SMOKE)/campaign-demo.jsonl \
		--telemetry-dir $(SMOKE)/campaign-demo.jsonl.telemetry \
		--metrics-out $(SMOKE)/campaign-demo-metrics.json \
		--trace-out $(SMOKE)/campaign-demo-trace.json
	$(PYTHON) -m repro.fi status --journal $(SMOKE)/campaign-demo.jsonl
	$(PYTHON) -m repro.fi report $(SMOKE)/campaign-demo.jsonl \
		--out $(SMOKE)/campaign-demo.html

store-smoke:     ## warehouse round trip on the campaign-demo journal
	mkdir -p $(SMOKE)
	rm -f $(SMOKE)/store-smoke.sqlite3 $(SMOKE)/store-smoke-heatmap.html
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 ingest \
		$(SMOKE)/campaign-demo.jsonl \
		--telemetry-dir $(SMOKE)/campaign-demo.jsonl.telemetry
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 list
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 show 1
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 diff 1 1
	$(PYTHON) -m repro.store --db $(SMOKE)/store-smoke.sqlite3 heatmap 1 \
		--out $(SMOKE)/store-smoke-heatmap.html

prune-smoke:     ## def-use pruning: audit, accounting, collapsed-vs-full gate
	mkdir -p $(SMOKE)
	rm -rf $(SMOKE)/prune-smoke.sqlite3 $(SMOKE)/prune-smoke-heatmap.html \
		$(SMOKE)/prune-accounting.txt $(SMOKE)/prune-full.jsonl \
		$(SMOKE)/prune-full.jsonl.telemetry $(SMOKE)/prune-defuse.jsonl \
		$(SMOKE)/prune-defuse.jsonl.telemetry
	# The lane-kernel def-use pass must rebuild all four committed maps
	# byte for byte. Runs first: the audits below rewrite the map cache.
	$(PYTHON) -m pytest -q tests/prune/test_lane_events.py -k byte_identical
	# Sampled prune.* audit on both cores and both programs: any refuted
	# claim is an error-severity finding, which exits 1 and fails the job.
	$(PYTHON) -m repro.lint avr msp430 --audit-prune \
		--rules prune.cert-invalid,prune.dead-refuted,prune.equiv-refuted
	$(PYTHON) -m repro.lint avr msp430 --audit-prune --prune-program conv \
		--rules prune.cert-invalid,prune.dead-refuted,prune.equiv-refuted
	$(PYTHON) -m repro.eval prune | tee $(SMOKE)/prune-accounting.txt
	# Same sampled points, full campaign vs def-use collapse; the diff
	# gate exits 1 on any outcome flip between them. 2000 points is dense
	# enough for the collapse to save >2x injections (the headline win).
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 7 \
		--journal $(SMOKE)/prune-full.jsonl --no-store
	$(PYTHON) -m repro.fi run --target avr-fib --sampled 2000 --seed 7 \
		--defuse --journal $(SMOKE)/prune-defuse.jsonl --no-store
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 ingest \
		$(SMOKE)/prune-full.jsonl $(SMOKE)/prune-defuse.jsonl
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 diff 1 2
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 show 2
	$(PYTHON) -m repro.store --db $(SMOKE)/prune-smoke.sqlite3 heatmap 2 \
		--compare 1 --out $(SMOKE)/prune-smoke-heatmap.html

sim-equivalence: ## checkpointed injection vs replay, lane batches vs scalar injection; 2000 points/core
	$(PYTHON) -m pytest -q -m slow tests/fi/test_checkpoint_equivalence.py \
		tests/fi/test_lane_equivalence.py

dist-smoke:      ## distributed service: 2 workers, one SIGKILLed, flip-free gate
	mkdir -p $(SMOKE)
	# Coordinator (worker auth + live console) + two loopback injector
	# workers over a 2000-point avr-fib campaign; /metrics and
	# /status.json are scraped mid-run, one worker is SIGKILLed, the
	# merged shard journal must diff flip-free against a single-host
	# reference and match its left_golden at every index, and a SIGSTOP
	# stall drill must trip (then clear) the stalled health rule.
	$(PYTHON) scripts/dist_smoke.py --smoke-dir $(SMOKE)

bench:           ## append a versioned perf snapshot (BENCH_<n+1>.json)
	$(PYTHON) -m repro.eval bench --out-dir .

lint:            ## static analysis of the evaluation designs
	$(PYTHON) -m repro.lint figure1
	$(PYTHON) -m repro.lint avr
	$(PYTHON) -m repro.lint msp430

lint-self:       ## self-lint every fixture-produced netlist (zero errors)
	$(PYTHON) -m pytest -m lint_self -q

ruff:            ## style/import checks (requires ruff; CI installs it)
	$(PYTHON) -m ruff check .

tables:          ## regenerate the paper's tables and figures
	$(PYTHON) -m repro.eval all

.PHONY: test race bench bench-compare bench-save campaign-smoke campaign-resume-smoke campaign-distributed-smoke campaign-cache-smoke campaign-transfer-smoke campaign-evalcache-smoke serve-smoke figures-smoke

test:
	go build ./... && go test ./...

# The concurrency substrate, the pipeline free list and front-end memo
# that a run's simulations share, the parallel DSE engine and the
# campaign orchestrator must stay clean under the race detector. The
# campaign package replays whole (small) campaigns many times — determinism
# across workers plus the checkpoint/resume suite — so it needs more
# than the default 10-minute package timeout under the race detector.
race:
	go test -race -timeout 30m ./internal/parallel/... ./internal/kfusion/... ./internal/hypermapper/... ./internal/campaign/... ./internal/seqcache/... ./internal/sharedfs/... ./internal/evalstore/... ./internal/serve/...

bench:
	go test -run '^$$' -bench . -benchmem .

# Snapshot the benchmarks, gate them against the same benchmarks timed
# on the last commit (HEAD) in the same run, with benchstat when
# available, and distill the run into BENCH_$(BENCH_INDEX).json (the
# per-PR snapshot series).
BENCH_INDEX ?= 11
bench-compare:
	BENCH_BASE=HEAD ./scripts/bench-compare.sh $(BENCH_INDEX)

# Promote the latest benchmark snapshot to the baseline future runs are
# compared against.
bench-save:
	@test -f benchmarks/latest.txt || { echo "benchmarks/latest.txt not found; run 'make bench-compare' first"; exit 1; }
	cp benchmarks/latest.txt benchmarks/baseline.txt

# Tiny end-to-end campaign: a 4-cell grid (2 scenarios × 2 devices) at
# quick scale, with the multi-fidelity ladder on — the CI smoke test of
# the cross-scene/cross-device engine. A run rejected at flag validation
# must exit 1 and leave an existing -o file untouched.
SMOKE_REPORT := .campaign-smoke-report.txt
campaign-smoke:
	go run ./cmd/experiments -campaign -quick \
		-campaign-scenes lr_kt0,of_kt0 \
		-campaign-devices odroid-xu3,pixel-adreno530 \
		-random 6 -active 1 -batch 2 -mf-stride 2 -mf-promote 0.5
	echo keep > $(SMOKE_REPORT)
	! go run ./cmd/experiments -campaign -quick -campaign-format bogus -o $(SMOKE_REPORT)
	grep -qx keep $(SMOKE_REPORT)
	rm -f $(SMOKE_REPORT)
	@echo "campaign-smoke: rejected run left the existing report intact"

# Checkpoint/resume smoke test of the staged campaign engine: run the
# same campaign, on the multi-fidelity ladder, three ways — stopped
# after the Explore stage, resumed from its checkpoints, and
# uninterrupted — and require the resumed report to be byte-identical
# to the uninterrupted one.
RESUME_SMOKE_DIR := .campaign-resume-smoke
RESUME_SMOKE_FLAGS := -campaign -quick \
	-campaign-scenes lr_kt0,of_kt0 \
	-campaign-devices odroid-xu3,pixel-adreno530 \
	-random 6 -active 1 -batch 2 \
	-mf-stride 2 -mf-promote 0.5
campaign-resume-smoke:
	rm -rf $(RESUME_SMOKE_DIR)
	mkdir -p $(RESUME_SMOKE_DIR)
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-campaign-store $(RESUME_SMOKE_DIR)/store -campaign-stop-after explore
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-campaign-store $(RESUME_SMOKE_DIR)/store -campaign-resume \
		-o $(RESUME_SMOKE_DIR)/resumed.txt
	go run ./cmd/experiments $(RESUME_SMOKE_FLAGS) \
		-o $(RESUME_SMOKE_DIR)/fresh.txt
	diff $(RESUME_SMOKE_DIR)/fresh.txt $(RESUME_SMOKE_DIR)/resumed.txt
	rm -rf $(RESUME_SMOKE_DIR)
	@echo "campaign-resume-smoke: resumed report byte-identical to uninterrupted run"

# Crash-safety smoke test of the worker-lease protocol: two OS
# processes cooperate on one campaign through a shared store root, one
# is SIGKILLed mid-run, and the survivor's report must be
# byte-identical to an uninterrupted single-process run.
campaign-distributed-smoke:
	./scripts/distributed-smoke.sh

# Transfer-learning smoke test: the same 4×2 campaign grid with and
# without -campaign-transfer; the transfer-off table must be
# byte-identical to the pre-transfer golden, and campaigncmp enforces
# ≥20% borrower savings at equal-or-better shared-reference
# hypervolume.
campaign-transfer-smoke:
	./scripts/transfer-smoke.sh

# Fault-tolerance smoke test of the rendered-sequence cache: two OS
# processes share a store root (checkpoints AND the sequence cache in
# its seqcache subdirectory), one is SIGKILLed and a cache artifact is
# corrupted in place mid-run; the survivor's report must be
# byte-identical to an uncached run, with no leaked temp files in the
# cache directory.
campaign-cache-smoke:
	./scripts/cache-smoke.sh

# Smoke test of the persistent evaluation store: a cold campaign run
# fills the store, a warm re-run must simulate nothing while rendering
# a byte-identical report, and a record corrupted in place must be
# silently repaired by exactly one re-simulation.
campaign-evalcache-smoke:
	./scripts/evalcache-smoke.sh

# End-to-end smoke test of the campaign service: a campaign submitted
# to cmd/dseserve over HTTP must render a report byte-identical to
# cmd/experiments, and a server SIGTERMed mid-campaign must resume the
# job after restart with zero repeated simulation (evalstore counters
# prove it).
serve-smoke:
	./scripts/serve-smoke.sh

# Determinism smoke test of the figure path: the quick experiments
# report (E1–E7) at one and at two workers must be byte-identical apart
# from its generation-time line.
FIGURES_SMOKE_DIR := .figures-smoke
figures-smoke:
	rm -rf $(FIGURES_SMOKE_DIR)
	mkdir -p $(FIGURES_SMOKE_DIR)
	go build -o $(FIGURES_SMOKE_DIR)/experiments ./cmd/experiments
	$(FIGURES_SMOKE_DIR)/experiments -quick -workers 1 -o $(FIGURES_SMOKE_DIR)/w1.md
	$(FIGURES_SMOKE_DIR)/experiments -quick -workers 2 -o $(FIGURES_SMOKE_DIR)/w2.md
	grep -v '^Total generation time' $(FIGURES_SMOKE_DIR)/w1.md > $(FIGURES_SMOKE_DIR)/w1.body
	grep -v '^Total generation time' $(FIGURES_SMOKE_DIR)/w2.md > $(FIGURES_SMOKE_DIR)/w2.body
	diff $(FIGURES_SMOKE_DIR)/w1.body $(FIGURES_SMOKE_DIR)/w2.body
	rm -rf $(FIGURES_SMOKE_DIR)
	@echo "figures-smoke: quick report byte-identical at -workers 1 and 2"

GO ?= go

.PHONY: build vet test race race-equality smoke-16x16 smoke-32x32 smoke-64x64 bench-smoke bench-digests fuzz-smoke obs-smoke scenario-smoke cover ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The three bit-for-bit equivalence gates under the race detector: the
# active-set kernel against the dense reference, the pooled memory
# engine (arena recycling + cross-cell network reuse) against the
# no-pool reference, and the sharded two-phase tick against the serial
# kernel — each with the invariant checker attached. The sharded gate is the one
# the race detector bites hardest: any unsynchronized cross-shard access
# in the barrier is a hard failure there, not a flaky diff. `race`
# already covers them via ./...; this target exists so CI names them
# explicitly and a -short or cached run cannot skip them. The explicit
# -timeout overrides go test's 600s default: on a single-core machine
# the sharded gate alone can exceed it under the race detector.
race-equality:
	$(GO) test -race -count=1 -timeout 45m -run='^(TestActiveSetEqualsDense|TestPoolEqualsNoPool|TestShardedEqualsSerial)$$' ./internal/experiments

# The large-radix smoke cells: a short 16x16 AFC run with the invariant
# checker attached, serial and through the sharded tick at 8 shards (see
# TestLargeMesh16x16Smoke / TestLargeMesh16x16ShardedSmoke), so the
# regime the slab-resident routers and the sharded barrier target is
# exercised on every CI run even though the paper's own experiments stop
# at 3x3.
smoke-16x16:
	$(GO) test -short -count=1 -run='^TestLargeMesh16x16(Sharded)?Smoke$$' ./internal/network

# The 1024-node record: the 32x32 cell serial and through the sharded
# tick at 8 shards, checker attached (see TestLargeMesh32x32Smoke).
# On demand rather than in `ci` — the cell is ~50x the 16x16 smoke.
smoke-32x32:
	$(GO) test -count=1 -run='^TestLargeMesh32x32(Sharded)?Smoke$$' ./internal/network

# The kilonode record: the 64x64 cell (4096 nodes — the slab-resident
# router state's target regime) serial and through the sharded tick at
# 8 shards, checker attached (see TestLargeMesh64x64Smoke). Short cycle
# count keeps it cheap enough for `ci`.
smoke-64x64:
	$(GO) test -short -count=1 -run='^TestLargeMesh64x64(Sharded)?Smoke$$' ./internal/network

# One-iteration pass over a closed-loop benchmark (catches harness
# regressions without paying for a full measurement run), then the
# steady-state allocation gate: every router kind's kernel step must
# allocate nothing once warmed up. Performance itself is measured by
# perfbench (perfbench/README.md), an A/B against the parent commit.
bench-smoke:
	$(GO) test -run='^$$' -bench=Fig2a -benchtime=1x .
	$(GO) test -count=1 -run '^TestKernelStepAllocFree$$' .

# The exact-output gate: one second of every perfbench workload at seed
# 1, each of which must end with `"correct": true` (every cell's result
# matches its digest pinned in perfbench/digests.go) and `"failed": 0`,
# then perfbench's own tests. The pinned digests are the only exact-output
# check for the deflect and drop kinds.
BENCH_WORKLOADS = paper-closed-3x3 mesh32-uniform scenario-16x16-faults

bench-digests:
	@for w in $(BENCH_WORKLOADS); do \
		last=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$last" | python3 -c 'import json, sys; r = json.load(sys.stdin); print("%s: correct %s, failed %s" % (sys.argv[1], r["correct"], r["failed"])); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' $$w || exit 1; \
	done
	cd perfbench && $(GO) test -count=1 .

# Short run of every native fuzz target (~10s each). The corpora under
# testdata/fuzz (checked in as they grow) replay first, so previously
# found inputs regress loudly.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzKindJSON$$' -fuzztime=10s ./internal/network
	$(GO) test -run='^$$' -fuzz='^FuzzConfig$$' -fuzztime=10s ./internal/check
	$(GO) test -run='^$$' -fuzz='^FuzzNetworkStep$$' -fuzztime=10s ./internal/check
	$(GO) test -run='^$$' -fuzz='^FuzzArenaHandles$$' -fuzztime=10s ./internal/flit
	$(GO) test -run='^$$' -fuzz='^FuzzShardBarrier$$' -fuzztime=10s ./internal/network
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzQuiescentContract$$' -fuzztime=10s ./internal/vcrouter
	$(GO) test -run='^$$' -fuzz='^FuzzQuiescentContract$$' -fuzztime=10s ./internal/deflect
	$(GO) test -run='^$$' -fuzz='^FuzzQuiescentContract$$' -fuzztime=10s ./internal/core

# One tiny sweep with every observability flag on: the run must succeed,
# leave a heap profile behind, and produce a manifest that records the
# single executed cell.
obs-smoke:
	$(GO) run ./cmd/sweep -kinds afc -min 0.1 -max 0.1 -seeds 1 \
		-warmup 200 -measure 400 -progress \
		-manifest obs-manifest.json -memprofile obs-mem.pprof > /dev/null
	@grep -q '"command": "sweep"' obs-manifest.json
	@grep -q '"cellsTotal": 1' obs-manifest.json
	@grep -q '"cellsDone": 1' obs-manifest.json
	@test -s obs-mem.pprof
	@rm -f obs-manifest.json obs-mem.pprof
	@echo "obs smoke ok"

# The scenario-layer gates under the race detector: the determinism
# test (same spec bit-for-bit identical across experiment parallelism
# and shard counts, checker attached — covers deflective and buffered
# kinds with a ramp, burst, hotspot move, dead link, dead router and a
# duty-cycled throttle) plus the mid-run dead-link fault test (deflective
# kinds reroute, buffered kinds degrade gracefully, conservation holds)
# plus the 16x16 scenario x shards x faults gate (dead links, a dead
# router and a throttle under -shards 8, bit-identical to serial).
scenario-smoke:
	$(GO) test -race -count=1 -timeout 45m -run='^(TestScenarioEqualsSerial|TestScenarioFaultCompletion|TestScenarioFaultShards16x16|TestScenarioDenseEqualsActiveSet)$$' ./internal/experiments

# Whole-repo statement coverage, compared against the checked-in
# baseline (coverage-baseline.txt) with half a point of slack so
# refactors can't silently shed tests.
cover:
	$(GO) test -short -coverprofile=coverage.out -coverpkg=./... ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	base=$$(cat coverage-baseline.txt); \
	awk -v t="$$total" -v b="$$base" 'BEGIN { if (t + 0.5 < b) { printf "coverage regressed: %.1f%% < baseline %.1f%%\n", t, b; exit 1 } else { printf "coverage ok: %.1f%% (baseline %.1f%%)\n", t, b } }'

ci: build vet race race-equality smoke-16x16 smoke-64x64 bench-smoke bench-digests fuzz-smoke obs-smoke scenario-smoke cover

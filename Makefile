# Convenience targets for the vapro reproduction.

GO ?= go

.PHONY: all build check test vet sortguard logguard hatchguard race chaos fuzz cover bench bench-smoke bench-e2e experiments full clean

all: build vet test

# Everything CI needs: compile, vet, full test suite, race pass, the
# chaos soak, a single-iteration pass over the ingestion benchmarks
# (catches crashes and gross regressions without benchmarking for real),
# and one workload of the loopback end-to-end harness as a correctness
# gate.
check: build vet sortguard logguard hatchguard test race chaos bench-smoke bench-e2e

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The reflection-swapper sorts stay out of the tick's hot packages and
# out of what runs under a server's lock (typed slices.Sort*/merges
# only).
sortguard:
	@! grep -nE 'sort\.(Slice|SliceStable|Sort|Stable)\(' $$(ls internal/detect/*.go internal/cluster/*.go internal/stg/*.go internal/collector/*.go | grep -v _test.go) \
		|| { echo "sort.Slice/SliceStable/Sort in internal/detect, cluster, stg or collector"; exit 1; }

# The row log stays gone: an STG element's fragments live in a columnar
# trace.Log, never in a []trace.Fragment field that append re-copies.
logguard:
	@! grep -nE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+\[\]trace\.Fragment([[:space:]]|$$)|growFrags' $$(ls internal/stg/*.go | grep -v _test.go) \
		|| { echo "[]trace.Fragment field or growFrags in internal/stg"; exit 1; }

# No escape hatch comes back unnoticed: outside bench/ and tests, the
# only option fields named Disable* or MaxDirtyRatio are the ones a
# later deletion PR owns. The list can only shrink.
hatchguard:
	@! grep -nE '^[[:space:]]+(Disable[A-Z][A-Za-z0-9_]*|MaxDirtyRatio)[[:space:]]+[A-Za-z*\[]' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*') \
		| grep -vE '^\./internal/(detect/[^/]*:[0-9]+:[[:space:]]+DisableIncremental|cluster/[^/]*:[0-9]+:[[:space:]]+MaxDirtyRatio)[[:space:]]' \
		|| { echo "a Disable*/MaxDirtyRatio option field outside the hatchguard allow-list"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mpi ./internal/collector ./internal/core ./internal/interpose ./internal/detect ./internal/cluster ./internal/obs ./internal/faults ./internal/wal ./internal/trace ./internal/stg

# The fault-tolerance soaks: kill/restart the wire server 5x under
# multi-rank load (single server), kill/restart one shard server of 8
# (sharded tier), and the durability soak (both tiers die mid-run, the
# second generation rebuilds from journal + spill WALs with zero loss)
# — all hold the exact loss-accounting invariant.
chaos:
	$(GO) test -race -count=2 -timeout 120s -run 'TestChaosSoakServerRestarts|TestChaosShardServerKillRestart|TestChaosSoakJournalCrashReplay' ./internal/collector

# A few seconds of coverage-guided fuzzing per hostile-bytes surface
# (wire decoders, WAL recovery) and per model-checked structure (the
# wire encoder against the map-dictionary one it replaced, the
# run merge, the warm analyzer against its cold oracle, the 1-D and the
# multi-D incremental clustering against Run, the columnar fragment log, the
# sparse moment fold against the dense one), on top of the committed
# corpora. The analyzer and clustering targets' inputs are kilobyte
# scripts: the engine's default minute of minimizing each new one would
# leave a 3 s run a few hundred executions.
fuzz:
	$(GO) test -run xxx -fuzz 'FuzzDecodeBatchMeta' -fuzztime 3s ./internal/trace
	$(GO) test -run xxx -fuzz 'FuzzAppendBatch' -fuzztime 3s ./internal/trace
	$(GO) test -run xxx -fuzz 'FuzzDecodeHello' -fuzztime 3s ./internal/trace
	$(GO) test -run xxx -fuzz 'FuzzDecodeRecord' -fuzztime 3s ./internal/trace
	$(GO) test -run xxx -fuzz 'FuzzLogRecover' -fuzztime 3s ./internal/wal
	$(GO) test -run xxx -fuzz 'FuzzMergeRuns' -fuzztime 3s ./internal/detect
	$(GO) test -run xxx -fuzz 'FuzzAnalyzerEquivalence' -fuzztime 3s -fuzzminimizetime 200x ./internal/detect
	$(GO) test -run xxx -fuzz 'FuzzIncremental1D' -fuzztime 3s -fuzzminimizetime 200x ./internal/cluster
	$(GO) test -run xxx -fuzz 'FuzzIncrementalMultiD' -fuzztime 3s -fuzzminimizetime 200x ./internal/cluster
	$(GO) test -run xxx -fuzz 'FuzzLogRoundTrip' -fuzztime 3s ./internal/trace
	$(GO) test -run xxx -fuzz 'FuzzClusterMoments' -fuzztime 3s ./internal/diagnose

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of the ingestion-plane benchmarks, plus 3x (min kept,
# settle ticks in-bench) of every monitor-tick and sharded-tier
# benchmark: a smoke test, not a measurement (see EXPERIMENTS.md for
# recorded numbers). The parsed numbers land in BENCH.json for the CI
# artifact, and benchjson enforces the recorded scale bounds: the PR 6
# flat-tick ratio (1M vs 100k resident), the PR 7 per-shard ratio
# (2048 ranks × 8 shards vs 256 ranks × 1), the PR 8 trace-overhead
# bound (traced dispatch within 1.05x of the untraced sharded tick),
# the comm/IO bounds (the incremental comm/IO-heavy tick ≤0.05x of the
# batch oracle, measured 0.013–0.018x, and flat in the resident population:
# 1M within 1.5x of 100k), the PR 14 sort-free bound (comp-steady-shaped
# tick ≤0.08x of the batch plane; measured 0.05x), the tier round
# (MonitorTickWindow/plane=tier: the plane=monitor stream through a
# 2-shard tier, every plane carrying its own streaming-OLS hook, ≤1.32x
# of plane=monitor; min-of-3 ratios measured 0.96–1.20 over 11 runs,
# and the bound is the worst plus 10 %; its hook_share metric is the
# hook's worker time per tick; its B/op ≤1.93x of plane=monitor's, the
# worst min-of-3 ratio measured once planes stopped at partials, 1.75,
# plus 10 %), and the sparse
# streaming-OLS fold (idle OS counters ≤0.5x of all columns armed;
# measured 0.17x, the dense fold reads 1.0x), and absolute ceilings on
# what a resident fragment costs the graph plus the analyzer
# (resident_B_per_frag): a computation fragment on
# MonitorTickWindow/plane=inc and a comm/IO one on MonitorTickMultiD at
# 1M resident, each 5 % above its measured 49.5 and 51.1 B (live heap
# after two collections, so pooled scratch is not counted), and on
# what one plane=inc tick allocates (B/op ≤ 5.2 MB: the largest one-shot
# reading was 4.73 MB, plus 10 %; the first measured tick starts
# with empty scratch pools).
# BenchmarkLogAppend (ns/frag, B/frag per population),
# BenchmarkPoolIngest's resident_B_per_frag,
# MonitorTickWindow/plane=monitor (the whole
# monitor round, ±15 % at 1x) and BenchmarkEncodeFrame (a client flush's
# encoding: ns/frag, B/frag, allocs per frame, per population) are
# recorded beside them, unasserted.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPoolIngest$$|BenchmarkWindowResults|BenchmarkLogAppend' -benchtime 1x -benchmem . | tee bench-smoke.out
	$(GO) test -run xxx -bench 'BenchmarkEncodeFrame' -benchtime 2000x -benchmem ./internal/collector | tee -a bench-smoke.out
	$(GO) test -run xxx -bench 'BenchmarkMonitorTick|BenchmarkShardedTickScale|BenchmarkClusterMomentsAdd' -benchtime 1x -count=3 -benchmem . | tee -a bench-smoke.out
	$(GO) run ./cmd/benchjson -min -out BENCH.json \
		-assert 'MonitorTickScale/resident=1000k<=1.5*MonitorTickScale/resident=100k' \
		-assert 'ShardedTickScale/shards=8/ranks=2048<=1.5*ShardedTickScale/shards=1/ranks=256@ns_per_shard_tick' \
		-assert 'ShardedTickScaleTraced/shards=8/ranks=2048<=1.05*ShardedTickScale/shards=8/ranks=2048@ns_per_shard_tick' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k<=1.5*MonitorTickMultiD/plane=inc/resident=100k' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k<=0.05*MonitorTickMultiD/plane=batch' \
		-assert 'MonitorTickWindow/plane=inc<=0.08*MonitorTickWindow/plane=batch' \
		-assert 'MonitorTickWindow/plane=tier<=1.32*MonitorTickWindow/plane=monitor' \
		-assert 'MonitorTickWindow/plane=tier<=1.93*MonitorTickWindow/plane=monitor@B/op' \
		-assert 'MonitorTickWindow/plane=inc@B/op<=5.2e6' \
		-assert 'ClusterMomentsAdd/counters=idle<=0.5*ClusterMomentsAdd/counters=armed' \
		-assert 'MonitorTickWindow/plane=inc@resident_B_per_frag<=52.0' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k@resident_B_per_frag<=53.6' \
		< bench-smoke.out

# The loopback end-to-end harness (bench/README.md) on its common-case
# workload, ≈20 s. The exit code is the gate: books balance, live window
# results bit-identical to the cold reference, no event on a quiet
# stream. Its numbers land in bench/out/BENCH.json; compare two such
# files with `go run ./bench -compare A.json B.json`. Run nothing else
# while it measures.
bench-e2e:
	$(GO) run ./bench -workload comp-steady

experiments:
	$(GO) run ./cmd/vaproexp all

# The paper-scale (2048-rank) validation: minutes and gigabytes.
full:
	VAPRO_FULL=1 $(GO) test ./internal/exp -run TestFullScale -v -timeout 30m

clean:
	rm -f cover.out

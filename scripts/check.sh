#!/bin/sh
# The gauntlet: everything a PR must pass, in the order a failure is
# cheapest to report. With no arguments it runs every stage — CI runs it
# so, and so does `make check`; with stage names it runs those, in the
# order given (every other Makefile target of the list below is one
# such call: `make race` runs `./scripts/check.sh race`). Each command
# and each bound is written here once. Stages:
#
#   build vet sortguard logguard hatchguard test race chaos shardfuzz
#   fuzz bench-smoke bench-e2e record-analyze obs crash-replay
set -eux

cd "$(dirname "$0")/.."

STAGES="build vet sortguard logguard hatchguard test race chaos shardfuzz fuzz bench-smoke bench-e2e record-analyze obs crash-replay"

stage_build() {
	go build ./...
}

stage_vet() {
	go vet ./...
}

# Source guards: the reflection-swapper sorts stay out of the tick's hot
# packages and out of what runs under a server's lock (typed
# slices.Sort*/merges only), ...
stage_sortguard() {
	if grep -nE 'sort\.(Slice|SliceStable|Sort|Stable)\(' $(ls internal/detect/*.go internal/cluster/*.go internal/stg/*.go internal/collector/*.go | grep -v _test.go); then
		echo "sort.Slice/SliceStable/Sort in internal/detect, cluster, stg or collector"; exit 1
	fi
}

# ... the row log stays gone — an STG element's fragments live in a
# columnar trace.Log, never in a []trace.Fragment field that append
# re-copies — ...
stage_logguard() {
	if grep -nE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+\[\]trace\.Fragment([[:space:]]|$)|growFrags' $(ls internal/stg/*.go | grep -v _test.go); then
		echo "[]trace.Fragment field or growFrags in internal/stg"; exit 1
	fi
}

# ... and no escape hatch comes back unnoticed: outside bench/ and
# tests, the only option field named Disable* is the one a later
# deletion owns, and no MaxDirtyRatio valve returns. The list can only
# shrink.
stage_hatchguard() {
	if grep -nE '^[[:space:]]+(Disable[A-Z][A-Za-z0-9_]*|MaxDirtyRatio)[[:space:]]+[A-Za-z*\[]' $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*') |
		grep -vE '^\./internal/detect/[^/]*:[0-9]+:[[:space:]]+DisableIncremental[[:space:]]'; then
		echo "a Disable*/MaxDirtyRatio option field outside the hatchguard allow-list"; exit 1
	fi
}

# The test stage also pins the paper's outputs: internal/exp's TestQuick
# runs every experiment at Small scale and must print exactly
# internal/exp/testdata/golden/<id>.txt (`vaproexp <id>` without its
# "[… completed in …]" line). Regenerate with
# `go test ./internal/exp -run TestQuick -update`; a golden change needs
# an EXPERIMENTS.md row saying why the reproduced numbers moved.
stage_test() {
	go test ./...
}

stage_race() {
	go test -race ./internal/mpi ./internal/collector ./internal/core \
		./internal/interpose ./internal/detect ./internal/cluster \
		./internal/obs ./internal/faults ./internal/wal \
		./internal/trace ./internal/stg
}

# Chaos stage: the fault-tolerance soaks must hold the exact
# loss-accounting invariant (consumed == delivered + sequence gaps)
# with the race detector on — single server killed/restarted 5x under
# multi-rank load, one shard server of 8 killed/restarted under the
# sharded tier (per-shard books, survivors keep ticking, re-attach via
# the rebalanced shard map), and the durability soak: both tiers die
# mid-run and a second generation — server rebuilt from its journal,
# clients replaying their spill WALs — closes the books with zero loss
# and a bit-identical journal-replayed analysis.
stage_chaos() {
	go test -race -count=2 -timeout 120s \
		-run 'TestChaosSoakServerRestarts|TestChaosShardServerKillRestart|TestChaosSoakJournalCrashReplay' \
		./internal/collector
}

# Equivalence fuzz: the sharded tier's merged analysis must stay
# bit-identical to unsharded references across 100 scripted delivery
# schedules × shard counts {1,2,4,8}, raced.
stage_shardfuzz() {
	go test -race -count=1 -timeout 120s -run 'TestShardedEquivalenceFuzz' \
		./internal/collector
}

# Native fuzz smoke: a few seconds of coverage-guided input generation
# per hostile-bytes surface, on top of the committed regression corpora
# (which every plain `go test` already replays). One target per
# invocation — the fuzz engine requires it.
stage_fuzz() {
	go test -run xxx -fuzz 'FuzzDecodeBatchMeta' -fuzztime 3s ./internal/trace
	go test -run xxx -fuzz 'FuzzDecodeHello' -fuzztime 3s ./internal/trace
	go test -run xxx -fuzz 'FuzzDecodeRecord' -fuzztime 3s ./internal/trace
	go test -run xxx -fuzz 'FuzzLogRecover' -fuzztime 3s ./internal/wal
	# ... and the one merge every ordered sample stream is built by: any
	# partition of any sample multiset into runs must merge to its sort.
	go test -run xxx -fuzz 'FuzzMergeRuns' -fuzztime 3s ./internal/detect
	# ... and the tier's merge, which reads rows instead of a merged
	# stream: any scripted parts (owners, misroutes, a down part, outages,
	# ties) must merge to the owned stream's grid, stale marks, regions
	# and members.
	go test -run xxx -fuzz 'FuzzMergeRows' -fuzztime 3s ./internal/detect
	# ... and the contract the whole incremental plane answers to: any
	# script of bursts over any mix of element shapes, analysed by one warm
	# analyzer, must match a cold DisableIncremental oracle bit for bit.
	# (Its inputs are kilobyte scripts: the engine's default minute of
	# minimizing each new one would leave this run a few hundred executions.)
	go test -run xxx -fuzz 'FuzzAnalyzerEquivalence' -fuzztime 3s -fuzzminimizetime 200x ./internal/detect
	# ... and its clustering half on its own: any script of 1-D appends
	# (TOT_INS ties, zero norms, counts past 2^53, constant chunk lanes,
	# batches across a chunk boundary) and any script of multi-D appends
	# (argument classes, batch sizes, extra metrics, a kind flip) keeps the
	# warm cache's clustering equal to a cold Run after every advance.
	go test -run xxx -fuzz 'FuzzIncremental1D' -fuzztime 3s -fuzzminimizetime 200x ./internal/cluster
	go test -run xxx -fuzz 'FuzzIncrementalMultiD' -fuzztime 3s -fuzzminimizetime 200x ./internal/cluster
	# ... and the client's flush encoder: any batch the script spells must
	# encode to exactly the bytes of the map-dictionary encoder it replaced.
	go test -run xxx -fuzz 'FuzzAppendBatch' -fuzztime 3s ./internal/trace
	# ... and the structure every resident fragment lives in: any script of
	# appends, cross-log copies, held views and reads must agree with a
	# plain []Fragment, row for row.
	go test -run xxx -fuzz 'FuzzLogRoundTrip' -fuzztime 3s ./internal/trace
	# ... and the streaming-OLS fold: any row stream (idle, equal to the
	# first member, columns arming and returning, integer extremes) keeps
	# the sparse moments bitwise equal to the dense update.
	go test -run xxx -fuzz 'FuzzClusterMoments' -fuzztime 3s ./internal/diagnose
}

# Bench smoke: one iteration each, correctness plus the recorded scale
# bounds. Every MonitorTick bench (and the sharded tier) runs 3x with
# in-bench settle ticks, and benchjson -min keeps each benchmark's
# fastest line (min-of-runs) — single cold runs used to make
# BENCH.json non-monotone across resident sizes. The asserts gate the
# PR 6 flat-tick ratio, the PR 7 per-shard ratio (2048 ranks × 8 shards
# within 1.5x of 256 ranks × 1 shard per shard-tick), the PR 8
# trace-overhead bound (the traced wire dispatch — sample, stamp,
# exemplar ring — must keep the sharded tick within 1.05x of the
# untraced path: traced_ratio, the median of 41 paired ticks of a
# traced and an untraced tier fed the same stream, order flipped every
# pair, each tick after a collection; one-shot ticks spread too widely
# for a min of 3 to resolve 5 %), the comm/IO bounds (the incremental plane's
# comm/IO-heavy tick at ≤0.05x of the batch oracle — measured 0.013–0.018x —
# and flat in the resident population, 1M within 1.5x of 100k: every
# element is on the sample store, nothing copies residents), and the PR 14
# sort-free bound (the comp-steady-shaped tick at ≤0.08x of the batch
# plane; measured 0.05x), the tier round (MonitorTickWindow/plane=tier:
# the plane=monitor stream through a 2-shard tier, every plane folding
# its own streaming-OLS moments, at ≤1.32x of plane=monitor; min-of-3
# ratios measured 0.96–1.20 over 11 runs, the bound is the worst plus
# 10 %; its B/op at ≤1.25x of plane=monitor's, the worst min-of-3 ratio
# measured once the tier merged heat-map rows instead of a copied
# sample stream, 1.136, plus 10 % — 1.81 before, 1.75 when planes first
# stopped at partials), the tier round's bytes (ShardedTickScale at
# shards=8/ranks=2048 under 113.1 MB B/op, its measured 102.8 MB plus
# 10 %; 201 MB while the merge copied every owned sample), and the
# sparse streaming-OLS fold (idle OS counters at ≤0.5x of all columns
# armed; measured 0.17x, the dense fold reads 1.0x), and absolute
# ceilings on what a computation and a comm/IO fragment cost the graph
# plus the analyzer
# (resident_B_per_frag of MonitorTickWindow/plane=inc and of
# MonitorTickMultiD/plane=inc at 1M resident, each 5 % above its
# measured 29.9 and 23.0 B — since Assign holds 1-byte cluster labels
# in chunks (33.2 and 26.7 B before, with a 4-byte cluster index per
# fragment; 37.7 B before a 1-D element kept no sorted order, 39.4 B
# before a multi-D one kept no sorted order or norms, 51.1 B before
# log lanes went narrow) — live heap after two collections so pooled
# scratch is not counted; BenchmarkLogAppend/pop=comp's B/frag, 5 %
# above its measured 17.5 B; and plane=inc's B/op at ≤ 4.9 MB, the
# largest one-shot reading, 4.44 MB, plus 10 %). BenchmarkLogAppend's ns/frag and the
# commio B/frag and BenchmarkPoolIngest's resident_B_per_frag
# record what the columnar fragment log costs,
# MonitorTickWindow/plane=monitor the whole monitor round, and
# BenchmarkEncodeFrame a client flush's encoding (ns/frag, B/frag,
# allocs per frame; all unasserted; the round is ±15 % at 1x). Raw
# output and the parsed BENCH.json are kept for the CI artifact upload.
stage_bench_smoke() {
	go test -run xxx -bench 'BenchmarkPoolIngest$|BenchmarkWindowResults|BenchmarkLogAppend' \
		-benchtime 1x -benchmem . | tee bench-smoke.out
	go test -run xxx -bench 'BenchmarkEncodeFrame' -benchtime 2000x -benchmem \
		./internal/collector | tee -a bench-smoke.out
	go test -run xxx -bench 'BenchmarkMonitorTick|BenchmarkShardedTickScale|BenchmarkClusterMomentsAdd' \
		-benchtime 1x -count=3 -benchmem . | tee -a bench-smoke.out
	go run ./cmd/benchjson -min -out BENCH.json \
		-assert 'MonitorTickScale/resident=1000k<=1.5*MonitorTickScale/resident=100k' \
		-assert 'ShardedTickScale/shards=8/ranks=2048<=1.5*ShardedTickScale/shards=1/ranks=256@ns_per_shard_tick' \
		-assert 'ShardedTickScaleTraced/shards=8/ranks=2048@traced_ratio<=1.05' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k<=1.5*MonitorTickMultiD/plane=inc/resident=100k' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k<=0.05*MonitorTickMultiD/plane=batch' \
		-assert 'MonitorTickWindow/plane=inc<=0.08*MonitorTickWindow/plane=batch' \
		-assert 'MonitorTickWindow/plane=tier<=1.32*MonitorTickWindow/plane=monitor' \
		-assert 'MonitorTickWindow/plane=tier<=1.25*MonitorTickWindow/plane=monitor@B/op' \
		-assert 'ShardedTickScale/shards=8/ranks=2048@B/op<=1.131e8' \
		-assert 'MonitorTickWindow/plane=inc@B/op<=4.9e6' \
		-assert 'ClusterMomentsAdd/counters=idle<=0.5*ClusterMomentsAdd/counters=armed' \
		-assert 'MonitorTickWindow/plane=inc@resident_B_per_frag<=31.4' \
		-assert 'MonitorTickMultiD/plane=inc/resident=1000k@resident_B_per_frag<=24.1' \
		-assert 'LogAppend/pop=comp@B/frag<=18.3' \
		< bench-smoke.out
}

# End-to-end harness: one workload of bench/ (the real stack over
# loopback TCP, ≈20 s). The exit code is the correctness gate — books
# balance, live window results bit-identical to the cold reference, no
# event on the quiet stream; bench/out/BENCH.json is kept for the CI
# artifact upload. Nothing else runs while it measures.
stage_bench_e2e() {
	go run ./bench -workload comp-steady
}

# The serve smokes drive the CLI binary, built once per run.
vapro_check() {
	if [ -z "${VAPRO_CHECK_BUILT:-}" ]; then
		go build -o /tmp/vapro-check ./cmd/vapro
		VAPRO_CHECK_BUILT=1
	fi
}

# Record→analyze smoke: a run recorded with -record DIR (its delivery
# journal plus run.json) and re-analyzed offline by `vapro analyze
# -journal DIR` must report the same summary line (app, ranks, makespan,
# STG, fragments, coverage, regions) as the run did. A recorded run
# whose diagnosis quantifies by OLS must re-diagnose offline
# (`vapro analyze -journal DIR -diagnose`) to byte-identical
# progressive diagnosis sections, with at least one OLS p-value among
# them. The record directories stay behind on failure for the CI
# artifact upload.
stage_record_analyze() {
	vapro_check
	# Offline and online runs both record; either journal re-analyzes to
	# the run's own summary line.
	for MODE in "" -online; do
		rm -rf /tmp/vapro-run.rec
		/tmp/vapro-check -app CG -ranks 8 $MODE -record /tmp/vapro-run.rec >/tmp/vapro-run.out
		/tmp/vapro-check analyze -journal /tmp/vapro-run.rec >/tmp/vapro-run-analyze.out
		RUN_SUMMARY=$(grep ' ranks, makespan ' /tmp/vapro-run.out)
		ANALYZE_SUMMARY=$(grep ' ranks, makespan ' /tmp/vapro-run-analyze.out)
		[ -n "$RUN_SUMMARY" ] && [ "$RUN_SUMMARY" = "$ANALYZE_SUMMARY" ]
		grep -q 'performance heat map' /tmp/vapro-run-analyze.out
		rm -rf /tmp/vapro-run.rec
	done
	rm -rf /tmp/vapro-diag.rec
	/tmp/vapro-check -app CG -ranks 48 -cpu-noise node=1,start=0.5,end=2,share=0.5 \
		-diagnose -record /tmp/vapro-diag.rec >/tmp/vapro-diag-run.out
	/tmp/vapro-check analyze -journal /tmp/vapro-diag.rec -diagnose >/tmp/vapro-diag-analyze.out
	sed -n '/^progressive diagnosis/,$p' /tmp/vapro-diag-run.out >/tmp/vapro-diag-run.sec
	sed -n '/^progressive diagnosis/,$p' /tmp/vapro-diag-analyze.out >/tmp/vapro-diag-analyze.sec
	[ -s /tmp/vapro-diag-run.sec ]
	cmp /tmp/vapro-diag-run.sec /tmp/vapro-diag-analyze.sec
	grep -q ' p=' /tmp/vapro-diag-run.sec
	rm -rf /tmp/vapro-diag.rec
}

# Observability smoke: boot a real collector, scrape its metrics
# endpoint with `vapro status`, and assert the cross-layer metric names
# are exposed.
stage_obs() {
	vapro_check
	/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
		>/tmp/vapro-serve.out 2>&1 &
	SERVE_PID=$!
	trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
	# Wait for the server to print its bound metrics address.
	i=0
	while ! grep -q '^metrics=' /tmp/vapro-serve.out; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "vapro serve never came up"; cat /tmp/vapro-serve.out; exit 1; }
		sleep 0.1
	done
	METRICS_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve.out)
	/tmp/vapro-check status -addr "$METRICS_ADDR" -raw prom >/tmp/vapro-metrics.out
	for name in vapro_uptime_seconds vapro_intake_staged vapro_intake_batches_total \
		vapro_wire_frames_total vapro_wire_frames_rejected_total \
		vapro_wire_seq_gaps_total vapro_net_batches_lost_total \
		vapro_net_reconnects_total vapro_net_spill_depth \
		vapro_detect_window_ns vapro_cluster_cache_hits \
		vapro_cluster_cache_inc_hits vapro_cluster_cache_inc_recuts \
		vapro_detect_prep_rebuilds_total \
		vapro_storage_bytes_per_rank_second \
		vapro_detect_store_appends_total vapro_detect_sample_sort_fallbacks_total \
		vapro_ols_rank1_updates_total vapro_ols_refactors_total \
		vapro_stg_log_bytes vapro_stg_log_chunks vapro_stg_log_lanes_live \
		vapro_stg_log_lanes_wide vapro_cluster_assign_bytes; do
		grep -q "$name" /tmp/vapro-metrics.out || {
			echo "metrics endpoint missing $name"; exit 1; }
	done
	# The rendered panel must come up on the same endpoint, with the
	# resident-memory row.
	/tmp/vapro-check status -addr "$METRICS_ADDR" >/tmp/vapro-status.out
	grep -q 'vapro collector' /tmp/vapro-status.out
	grep -q '^resident  fragments' /tmp/vapro-status.out
	kill $SERVE_PID
	trap - EXIT

	# Sharded observability smoke: boot the rank-sharded tier (2 shard
	# servers), and assert the spatial scale-out surface — the tier
	# counters plus the per-shard gauge rows — is exposed end to end.
	/tmp/vapro-check serve -shards 2 -ranks 8 -listen 127.0.0.1:0 \
		-metrics 127.0.0.1:0 >/tmp/vapro-serve-sharded.out 2>&1 &
	SHARD_PID=$!
	trap 'kill $SHARD_PID 2>/dev/null || true' EXIT
	i=0
	while ! grep -q '^metrics=' /tmp/vapro-serve-sharded.out; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "sharded vapro serve never came up"; cat /tmp/vapro-serve-sharded.out; exit 1; }
		sleep 0.1
	done
	# Both shard listeners must have been announced.
	grep -q '^wire=' /tmp/vapro-serve-sharded.out
	grep -q '^wire1=' /tmp/vapro-serve-sharded.out
	SHARD_METRICS_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-sharded.out)
	/tmp/vapro-check status -addr "$SHARD_METRICS_ADDR" -raw prom >/tmp/vapro-shard-metrics.out
	for name in vapro_shards vapro_shard_strips_merged_total \
		vapro_shard_regions_stitched_total vapro_shard_merge_ns vapro_shardmap_rebalances_total \
		vapro_shard_redirects_total vapro_shard_misroutes_total \
		vapro_shard0_resident_ranks vapro_shard1_resident_ranks \
		vapro_shard0_seq_gaps vapro_shard1_intake_staged \
		vapro_stg_log_bytes vapro_shard0_stg_log_bytes \
		vapro_shard1_intake_fragments; do
		grep -q "$name" /tmp/vapro-shard-metrics.out || {
			echo "sharded metrics endpoint missing $name"; exit 1; }
	done
	# The panel grows the shard rows on a sharded endpoint, each with its
	# share of the resident log.
	/tmp/vapro-check status -addr "$SHARD_METRICS_ADDR" | grep -q 'shard 1: resident.*B/fragment'
	kill $SHARD_PID
	trap - EXIT

	# Fleet observability smoke: boot the rank-sharded tier (4 shard
	# servers) with its one metrics listener, stream real traced batches
	# through the wire with `vapro feed`, and assert the pool's own /fleet
	# view agrees with the feed exactly: every frame sent is counted, and
	# the shard rows own every rank once. The fleet health table, the
	# stable -json schema, and the batch journey view must all come up
	# on the same endpoint.
	/tmp/vapro-check serve -shards 4 -ranks 16 -listen 127.0.0.1:0 \
		-metrics 127.0.0.1:0 >/tmp/vapro-serve-fleet.out 2>&1 &
	FLEET_PID=$!
	trap 'kill $FLEET_PID 2>/dev/null || true' EXIT
	i=0
	while ! grep -q '^metrics=' /tmp/vapro-serve-fleet.out; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "fleet vapro serve never came up"; cat /tmp/vapro-serve-fleet.out; exit 1; }
		sleep 0.1
	done
	WIRE_ADDR=$(sed -n 's/^wire=//p' /tmp/vapro-serve-fleet.out)
	FLEET_ADDR=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-fleet.out)
	/tmp/vapro-check feed -bootstrap "$WIRE_ADDR" -ranks 8 -batches 5 >/tmp/vapro-feed.out
	cat /tmp/vapro-feed.out
	SENT=$(sed -n 's/.* sent=\([0-9]*\) .*/\1/p' /tmp/vapro-feed.out)
	[ "${SENT:-0}" -eq 40 ] || { echo "feed sent ${SENT:-none} batches, want 40"; exit 1; }
	# The feed has drained; poll until the server has counted every frame
	# it sent, then hold the count to exactly that.
	i=0
	while :; do
		/tmp/vapro-check status -addr "$FLEET_ADDR" -json >/tmp/vapro-fleet.json
		FRAMES=$(awk '/"wire_frames":/ { gsub(/,/, "", $2); printf "%.0f", $2 }' /tmp/vapro-fleet.json)
		[ "${FRAMES:-0}" -eq "$SENT" ] && break
		i=$((i + 1))
		[ "$i" -gt 100 ] && {
			echo "/fleet wire_frames ($FRAMES) never matched the feed's sent ($SENT)"
			exit 1
		}
		sleep 0.1
	done
	RESIDENT=$(awk '/"resident_ranks":/ { gsub(/,/, "", $2); s += $2 } END { printf "%.0f", s }' /tmp/vapro-fleet.json)
	[ "$RESIDENT" -eq 16 ] || { echo "/fleet rows own $RESIDENT ranks, want 16"; exit 1; }
	# The health gauge and the batch-journey counters ride the merged view.
	/tmp/vapro-check status -addr "$FLEET_ADDR" -raw prom >/tmp/vapro-fleet-metrics.out
	for name in vapro_fleet_health vapro_trace_batches_total vapro_trace_sampled_total; do
		grep -q "$name" /tmp/vapro-fleet-metrics.out || {
			echo "metrics endpoint missing $name"; exit 1; }
	done
	# All three status views render against the live deployment: the
	# health table with one row per shard.
	/tmp/vapro-check status -addr "$FLEET_ADDR" -fleet >/tmp/vapro-fleet-table.out
	grep -q '^vapro fleet — ' /tmp/vapro-fleet-table.out
	[ "$(grep -cE '^[0-9]+ +(ok|degraded|critical) ' /tmp/vapro-fleet-table.out)" -eq 4 ] || {
		echo "fleet table lacks its 4 shard rows"; cat /tmp/vapro-fleet-table.out; exit 1; }
	/tmp/vapro-check status -addr "$FLEET_ADDR" -trace | grep -q 'batch journeys'
	kill $FLEET_PID
	trap - EXIT
}

# Crash-replay smoke: the durability plane against a real SIGKILL. A
# journaling server takes a full feed, dies with no shutdown path, and
# a restart over the same journal must rebuild the delivered stream
# exactly — then a second feed (clients reopening their spill WALs)
# lands on the rebuilt tracker with zero sequence gaps, and `vapro
# analyze` reproduces the combined run offline. The journal and WAL
# dirs stay behind on failure for the CI artifact upload.
stage_crash_replay() {
	vapro_check
	JDIR=/tmp/vapro-check-journal
	WDIR=/tmp/vapro-check-feedwal
	rm -rf "$JDIR" "$WDIR"
	/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
		-journal "$JDIR" >/tmp/vapro-serve-journal.out 2>&1 &
	JRN_PID=$!
	trap 'kill -9 $JRN_PID 2>/dev/null || true' EXIT
	i=0
	while ! grep -q '^metrics=' /tmp/vapro-serve-journal.out; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "journaling serve never came up"; cat /tmp/vapro-serve-journal.out; exit 1; }
		sleep 0.1
	done
	J_WIRE=$(sed -n 's/^wire=//p' /tmp/vapro-serve-journal.out)
	J_METRICS=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-journal.out)
	/tmp/vapro-check feed -bootstrap "$J_WIRE" -ranks 4 -batches 8 -wal "$WDIR"
	# Wait until all 32 frames are delivered — and therefore journaled.
	i=0
	while :; do
		FRAMES=$(/tmp/vapro-check status -addr "$J_METRICS" -raw prom |
			awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
		[ "${FRAMES:-0}" -eq 32 ] && break
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "journaling serve delivered ${FRAMES:-0}/32"; exit 1; }
		sleep 0.1
	done
	# SIGKILL: no flush, no close — the journal on disk is all that survives.
	kill -9 $JRN_PID
	trap - EXIT
	wait $JRN_PID 2>/dev/null || true
	/tmp/vapro-check serve -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
		-journal "$JDIR" >/tmp/vapro-serve-journal2.out 2>&1 &
	JRN2_PID=$!
	trap 'kill $JRN2_PID 2>/dev/null || true' EXIT
	i=0
	while ! grep -q '^metrics=' /tmp/vapro-serve-journal2.out; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "restarted journaling serve never came up"; cat /tmp/vapro-serve-journal2.out; exit 1; }
		sleep 0.1
	done
	grep -q 'replayed=32' /tmp/vapro-serve-journal2.out
	J2_WIRE=$(sed -n 's/^wire=//p' /tmp/vapro-serve-journal2.out)
	J2_METRICS=$(sed -n 's/^metrics=//p' /tmp/vapro-serve-journal2.out)
	/tmp/vapro-check status -addr "$J2_METRICS" -raw prom >/tmp/vapro-journal-metrics.out
	for name in vapro_wal_journal_segments vapro_wal_journal_appended_total \
		vapro_wal_journal_replayed_total vapro_wal_journal_oldest_age_seconds; do
		grep -q "$name" /tmp/vapro-journal-metrics.out || {
			echo "journal metrics missing $name"; exit 1; }
	done
	REPLAYED=$(awk '/^vapro_wal_journal_replayed_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
	[ "${REPLAYED:-missing}" = "32" ]
	REBUILT=$(awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
	[ "${REBUILT:-missing}" = "32" ]
	GAPS=$(awk '/^vapro_wire_seq_gaps_total[{ ]/ { printf "%.0f", $2 }' /tmp/vapro-journal-metrics.out)
	[ "${GAPS:-missing}" = "0" ]
	# The status panel grows the journal row on a journaling server.
	/tmp/vapro-check status -addr "$J2_METRICS" | grep -q 'journal'
	# Second generation of clients: same WAL dirs, rebuilt tracker. The
	# restarted numbering must dedup cleanly — gaps stay zero.
	/tmp/vapro-check feed -bootstrap "$J2_WIRE" -ranks 4 -batches 8 -wal "$WDIR"
	i=0
	while :; do
		FRAMES=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
			awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
		[ "${FRAMES:-0}" -eq 64 ] && break
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "restarted serve delivered ${FRAMES:-0}/64"; exit 1; }
		sleep 0.1
	done
	GAPS=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
		awk '/^vapro_wire_seq_gaps_total[{ ]/ { printf "%.0f", $2 }')
	[ "${GAPS:-missing}" = "0" ]
	# Third generation through the WAL drain path: a one-byte memory
	# bound sends every frame through the rank's spill WAL, which the
	# writer drains while the feed appends. Nothing may be lost.
	/tmp/vapro-check feed -bootstrap "$J2_WIRE" -ranks 4 -batches 8 -wal "$WDIR" \
		-max-spill-bytes 1 | tee /tmp/vapro-feed-walspill.out
	grep -q 'sent=32 lost=0 ' /tmp/vapro-feed-walspill.out
	i=0
	while :; do
		FRAMES=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
			awk '/^vapro_wire_frames_total[{ ]/ { printf "%.0f", $2 }')
		[ "${FRAMES:-0}" -eq 96 ] && break
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "restarted serve delivered ${FRAMES:-0}/96 through the spill WAL"; exit 1; }
		sleep 0.1
	done
	GAPS=$(/tmp/vapro-check status -addr "$J2_METRICS" -raw prom |
		awk '/^vapro_wire_seq_gaps_total[{ ]/ { printf "%.0f", $2 }')
	[ "${GAPS:-missing}" = "0" ]
	kill $JRN2_PID
	trap - EXIT
	wait $JRN2_PID 2>/dev/null || true
	# Offline historical queries over the journal reproduce the whole run,
	# under the run mode's report and its diagnosis.
	/tmp/vapro-check analyze -journal "$JDIR" -from 0 -diagnose | tee /tmp/vapro-analyze.out
	grep -q ' ranks, makespan ' /tmp/vapro-analyze.out
	grep -Fq 'replayed 96 frame(s)' /tmp/vapro-analyze.out
	/tmp/vapro-check analyze -journal "$JDIR" -from 0 -json |
		grep -q '"replayed_frames": 96'
	rm -rf "$JDIR" "$WDIR"
}

[ $# -gt 0 ] || set -- $STAGES
for stage in "$@"; do
	case " $STAGES " in
	*" $stage "*) ;;
	*)
		echo "check.sh: unknown stage $stage (stages: $STAGES)" >&2
		exit 2
		;;
	esac
	"stage_$(echo "$stage" | tr - _)"
done

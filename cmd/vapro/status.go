package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"vapro/internal/collector"
	"vapro/internal/obs"
)

// statusMain fetches a collector's metrics endpoint and renders a live
// status snapshot: intake depth, throughput, window analysis latency,
// cache hit rate, and the §6.2 storage rate. With -raw it dumps the
// endpoint's body instead (prom or json), which is what scripted
// consumers grep. -json emits the stable FleetStatus schema of the
// endpoint's /fleet view, -trace renders the slowest sampled batch
// journeys, and -fleet renders the fleet health table (repeating every
// -watch).
func statusMain(args []string) {
	fs := flag.NewFlagSet("vapro status", flag.ExitOnError)
	addr := fs.String("addr", "", "metrics address (host:port) of a running collector")
	raw := fs.String("raw", "", "dump the raw endpoint body in this format (prom|json) instead of rendering")
	jsonOut := fs.Bool("json", false, "emit the machine-readable FleetStatus JSON schema")
	traceView := fs.Bool("trace", false, "render the slowest recent batch journeys from the endpoint's /trace view")
	fleetView := fs.Bool("fleet", false, "render the fleet health table from the endpoint's /fleet view")
	watch := fs.Duration("watch", 0, "with -fleet: re-render every interval until interrupted")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	_ = fs.Parse(args)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "vapro status: -addr is required")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}

	switch {
	case *traceView:
		var ts obs.TraceSnapshot
		if err := fetchJSON(client, *addr, "/trace", &ts); err != nil {
			fmt.Fprintln(os.Stderr, "vapro status:", err)
			os.Exit(1)
		}
		fmt.Print(renderTrace(&ts))
		return
	case *jsonOut:
		st, err := fetchFleetStatus(client, *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vapro status:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
		return
	case *fleetView:
		for {
			st, err := fetchFleetStatus(client, *addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vapro status:", err)
				os.Exit(1)
			}
			fmt.Print(renderFleet(st))
			if *watch <= 0 {
				return
			}
			time.Sleep(*watch)
			fmt.Println()
		}
	}

	format := "json"
	if *raw == "prom" {
		format = "prom"
	}
	resp, err := client.Get(fmt.Sprintf("http://%s/metrics?format=%s", *addr, format))
	if err != nil {
		fmt.Fprintln(os.Stderr, "vapro status:", err)
		os.Exit(1)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vapro status:", err)
		os.Exit(1)
	}
	if *raw != "" {
		os.Stdout.Write(body)
		return
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fmt.Fprintln(os.Stderr, "vapro status: bad JSON from endpoint:", err)
		os.Exit(1)
	}
	fmt.Print(renderStatus(&snap))
}

// fetchJSON GETs http://addr<path> and decodes the JSON body.
func fetchJSON(client *http.Client, addr, path string, out any) error {
	resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// fetchFleetStatus returns the endpoint's /fleet view: the pool's
// health, evaluated for the read.
func fetchFleetStatus(client *http.Client, addr string) (*collector.FleetStatus, error) {
	var st collector.FleetStatus
	if err := fetchJSON(client, addr, "/fleet", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// renderTrace formats the slowest sampled batch journeys with a
// per-hop latency breakdown; the enqueue→write leg is labeled as the
// spill/redial dwell because that is what it measures.
func renderTrace(ts *obs.TraceSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batch journeys — interval 1/%d, %d stamped, %d sampled, %d held\n",
		ts.Interval, ts.Total, ts.Sampled, len(ts.Journeys))
	if len(ts.Journeys) == 0 {
		b.WriteString("  (no sampled journeys yet)\n")
		return b.String()
	}
	max := len(ts.Journeys)
	if max > 10 {
		max = 10
	}
	for n, j := range ts.Journeys[:max] {
		fmt.Fprintf(&b, "#%-2d client %d seq %d rank %d — span %s\n",
			n+1, j.Key.ClientID, j.Key.Seq, j.Rank, humanNS(float64(j.SpanNS())))
		prev := j.FlushNS
		if prev == 0 {
			prev = j.Hops[0]
		}
		var hops []string
		for h, t := range j.Hops {
			name := "?"
			if h < len(ts.HopNames) {
				name = ts.HopNames[h]
			}
			if t == 0 {
				hops = append(hops, name+" -")
				continue
			}
			d := t - prev
			if d < 0 {
				d = 0
			}
			leg := fmt.Sprintf("%s +%s", name, humanNS(float64(d)))
			if h == obs.HopWrite && d > 0 {
				leg += " (spill/redial dwell)"
			}
			hops = append(hops, leg)
			prev = t
		}
		fmt.Fprintf(&b, "    %s\n", strings.Join(hops, " → "))
	}
	return b.String()
}

// renderFleet formats the fleet health table: the fleet state and its
// reasons, then one row per shard with its first reason as the detail.
func renderFleet(st *collector.FleetStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vapro fleet — %s   ranks %.0f   servers %.0f   frames %.0f   seq gaps %.0f\n",
		st.State, st.Ranks, st.Servers, st.WireFrames, st.SeqGaps)
	for _, r := range st.Reasons {
		fmt.Fprintf(&b, "  ! %s\n", r)
	}
	fmt.Fprintf(&b, "%-6s %-12s %-22s %9s %7s %8s  %s\n",
		"shard", "state", "target", "resident", "staged", "seqgaps", "detail")
	for _, sh := range st.Shards {
		detail := ""
		if len(sh.Reasons) > 0 {
			detail = sh.Reasons[0]
		}
		fmt.Fprintf(&b, "%-6d %-12s %-22s %9.0f %7.0f %8.0f  %s\n",
			sh.Shard, sh.State, sh.Target, sh.ResidentRanks, sh.IntakeStaged, sh.SeqGaps, detail)
	}
	return b.String()
}

// val returns a metric's scalar value, 0 when absent.
func val(s *obs.Snapshot, name string) float64 {
	if m := s.Get(name); m != nil {
		return m.Value
	}
	return 0
}

// hist returns a metric's histogram snapshot, nil when absent.
func hist(s *obs.Snapshot, name string) *obs.HistSnapshot {
	if m := s.Get(name); m != nil {
		return m.Hist
	}
	return nil
}

// renderStatus formats the snapshot as the `vapro status` panel.
func renderStatus(s *obs.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vapro collector — up %s, %.0f server(s), %.0f rank(s)\n",
		humanSeconds(s.UptimeSeconds), val(s, "vapro_servers"), val(s, "vapro_ranks"))

	// The spatial scale-out surface: one summary row for the tier, then
	// one row per shard. A single-server collector never registers
	// vapro_shards, so the legacy panel is untouched.
	if shards := val(s, "vapro_shards"); shards > 0 {
		fmt.Fprintf(&b, "shards    %.0f   strips merged %.0f   regions stitched %.0f   rebalances %.0f   redirects %.0f   misroutes %.0f",
			shards, val(s, "vapro_shard_strips_merged_total"),
			val(s, "vapro_shard_regions_stitched_total"),
			val(s, "vapro_shardmap_rebalances_total"),
			val(s, "vapro_shard_redirects_total"),
			val(s, "vapro_shard_misroutes_total"))
		if h := hist(s, "vapro_shard_merge_ns"); h != nil && h.Total > 0 {
			fmt.Fprintf(&b, "   merge p50 %s p99 %s", humanNS(h.P50), humanNS(h.P99))
		}
		b.WriteString("\n")
		// One row per shard the tier declares — a shard whose row is
		// missing from the scrape renders as "(no data)" instead of
		// silently truncating the table at the first gap.
		for i := 0; i < int(shards); i++ {
			m := s.Get(fmt.Sprintf("vapro_shard%d_resident_ranks", i))
			if m == nil {
				fmt.Fprintf(&b, "          shard %d: (no data)\n", i)
				continue
			}
			fmt.Fprintf(&b, "          shard %d: resident %.0f rank(s)   intake staged %.0f   seq gaps %.0f   %s\n",
				i, m.Value,
				val(s, fmt.Sprintf("vapro_shard%d_intake_staged", i)),
				val(s, fmt.Sprintf("vapro_shard%d_seq_gaps", i)),
				residentLog(val(s, fmt.Sprintf("vapro_shard%d_intake_fragments", i)),
					val(s, fmt.Sprintf("vapro_shard%d_stg_log_bytes", i))))
		}
	}

	fmt.Fprintf(&b, "intake    staged %.0f (peak %.0f)   batches %.0f   fragments %.0f   stalls %.0f\n",
		val(s, "vapro_intake_staged"), val(s, "vapro_intake_staged_peak"),
		val(s, "vapro_intake_batches_total"), val(s, "vapro_intake_fragments_total"),
		val(s, "vapro_intake_stalls_total"))
	fmt.Fprintf(&b, "          bytes in %s   storage rate %s/rank/s\n",
		humanBytes(val(s, "vapro_intake_bytes_total")),
		humanBytes(val(s, "vapro_storage_bytes_per_rank_second")))

	// What the fragments cost to keep: the columnar logs are the
	// server's one resident copy of every fragment received, and the
	// clusterings' label chunks hold each one's cluster.
	frags := val(s, "vapro_intake_fragments_total")
	fmt.Fprintf(&b, "resident  %s   %s   %.0f chunk(s), %.0f live lane(s), %.0f wide\n",
		residentLog(frags, val(s, "vapro_stg_log_bytes")),
		perFragment("assign", frags, val(s, "vapro_cluster_assign_bytes")),
		val(s, "vapro_stg_log_chunks"), val(s, "vapro_stg_log_lanes_live"), val(s, "vapro_stg_log_lanes_wide"))

	fmt.Fprintf(&b, "wire      conns %.0f   frames %.0f (rejected %.0f, decode errors %.0f, panics %.0f)   bytes %s\n",
		val(s, "vapro_wire_conns_total"), val(s, "vapro_wire_frames_total"),
		val(s, "vapro_wire_frames_rejected_total"), val(s, "vapro_wire_decode_errors_total"),
		val(s, "vapro_wire_panics_total"), humanBytes(val(s, "vapro_wire_bytes_total")))
	fmt.Fprintf(&b, "          seq gaps %.0f (lost batches)   dups %.0f\n",
		val(s, "vapro_wire_seq_gaps_total"), val(s, "vapro_wire_dups_total"))

	// Durability surface: present only when the collector runs with a
	// delivery journal (vapro serve -journal). Pending counts records
	// not yet consumed by a cursor — for a journal that is every
	// retained record, since replay reads without consuming.
	if segs := val(s, "vapro_wal_journal_segments"); segs > 0 {
		state := ""
		if val(s, "vapro_wal_journal_replay_in_progress") > 0 {
			state = "   REPLAYING"
		}
		fmt.Fprintf(&b, "journal   segments %.0f   bytes %s   appended %.0f   oldest %s   replayed %.0f%s\n",
			segs, humanBytes(val(s, "vapro_wal_journal_bytes")),
			val(s, "vapro_wal_journal_appended_total"),
			humanSeconds(val(s, "vapro_wal_journal_oldest_age_seconds")),
			val(s, "vapro_wal_journal_replayed_total"), state)
		if errs, drops := val(s, "vapro_wal_journal_errors_total"), val(s, "vapro_wal_journal_dropped_records_total"); errs > 0 || drops > 0 {
			fmt.Fprintf(&b, "          write errors %.0f   records reclaimed unread %.0f (retention)   truncated %.0f (torn tails)\n",
				errs, drops, val(s, "vapro_wal_journal_truncated_total"))
		}
	}

	if dials := val(s, "vapro_net_dials_total"); dials > 0 {
		fmt.Fprintf(&b, "net       dials %.0f (connects %.0f, reconnects %.0f)   sent %.0f   lost %.0f   write timeouts %.0f   spill %.0f (peak %.0f)\n",
			dials, val(s, "vapro_net_connects_total"), val(s, "vapro_net_reconnects_total"),
			val(s, "vapro_net_batches_sent_total"), val(s, "vapro_net_batches_lost_total"),
			val(s, "vapro_net_write_timeouts_total"),
			val(s, "vapro_net_spill_depth"), val(s, "vapro_net_spill_peak"))
		fmt.Fprintf(&b, "          spill bytes %s\n", humanBytes(val(s, "vapro_net_spill_bytes")))
		// Client durability: the spill-to-disk WAL, when one is attached.
		if wseg := val(s, "vapro_wal_spill_segments"); wseg > 0 {
			fmt.Fprintf(&b, "          spill wal segments %.0f   bytes %s   pending %.0f   oldest %s\n",
				wseg, humanBytes(val(s, "vapro_wal_spill_bytes")),
				val(s, "vapro_wal_spill_pending"),
				humanSeconds(val(s, "vapro_wal_spill_oldest_age_seconds")))
		}
	}

	windows := val(s, "vapro_detect_windows_total")
	rate := 0.0
	if s.UptimeSeconds > 0 {
		rate = windows / s.UptimeSeconds
	}
	fmt.Fprintf(&b, "detect    windows %.0f (%.2f/s)", windows, rate)
	if h := hist(s, "vapro_detect_window_ns"); h != nil && h.Total > 0 {
		fmt.Fprintf(&b, "   latency p50 %s p99 %s", humanNS(h.P50), humanNS(h.P99))
	}
	b.WriteString("\n")
	var stages []string
	for _, st := range []string{"prep", "cluster", "normalize", "merge", "map"} {
		if h := hist(s, "vapro_detect_stage_"+st+"_ns"); h != nil && h.Total > 0 {
			stages = append(stages, fmt.Sprintf("%s p50 %s", st, humanNS(h.P50)))
		}
	}
	if len(stages) > 0 {
		fmt.Fprintf(&b, "          stages: %s\n", strings.Join(stages, " · "))
	}

	hits, misses := val(s, "vapro_cluster_cache_hits"), val(s, "vapro_cluster_cache_misses")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	fmt.Fprintf(&b, "cluster   cache %.1f%% hit (%.0f hits, %.0f misses, %.0f evictions, %.0f entries)\n",
		hitRate, hits, misses, val(s, "vapro_cluster_cache_evictions"), val(s, "vapro_cluster_cache_entries"))
	fmt.Fprintf(&b, "          inc advances %.0f (re-cuts %.0f)   fallbacks %.0f   stale reads %.0f\n",
		val(s, "vapro_cluster_cache_inc_hits"), val(s, "vapro_cluster_cache_inc_recuts"),
		val(s, "vapro_cluster_cache_inc_fallbacks"), val(s, "vapro_cluster_cache_stale_rejects"))

	// The sublinear steady-state planes: how much per-tick work the
	// incremental paths absorbed vs paid in full.
	fmt.Fprintf(&b, "steady    store appends %.0f (sort fallbacks %.0f)\n",
		val(s, "vapro_detect_store_appends_total"), val(s, "vapro_detect_sample_sort_fallbacks_total"))
	fmt.Fprintf(&b, "          ols rank-1 %.0f / refactors %.0f\n",
		val(s, "vapro_ols_rank1_updates_total"), val(s, "vapro_ols_refactors_total"))

	fmt.Fprintf(&b, "client    interceptions %.0f   dropped %.0f   flushes %.0f\n",
		val(s, "vapro_client_interceptions_total"), val(s, "vapro_client_dropped_total"),
		val(s, "vapro_client_flushes_total"))
	return b.String()
}

// residentLog renders a fragment count against the log bytes holding it.
func residentLog(frags, bytes float64) string {
	return fmt.Sprintf("fragments %.0f   %s", frags, perFragment("log", frags, bytes))
}

// perFragment renders what one resident structure costs: its bytes and
// their share per fragment.
func perFragment(name string, frags, bytes float64) string {
	per := 0.0
	if frags > 0 {
		per = bytes / frags
	}
	return fmt.Sprintf("%s %s   %.1f B/fragment", name, humanBytes(bytes), per)
}

func humanSeconds(s float64) string {
	switch {
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1fm", s/60)
	default:
		return fmt.Sprintf("%.1fs", s)
	}
}

func humanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

func humanNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

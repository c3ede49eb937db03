package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vapro/internal/collector"
	"vapro/internal/wal"
)

// serveMain starts a standalone collector: one online monitor over a
// Pool of -shards analysis planes, with one wire listener per plane
// (plane 0 at -listen, the rest on ephemeral ports), plus the metrics
// HTTP endpoint `vapro status` reads. It prints the actual bound
// addresses (so -listen/-metrics may use port 0) and runs until
// interrupted. Every listener publishes the pool's shard map in the
// wire hello, so clients need any one address to bootstrap.
//
// Observability: -metrics serves the pool's registry view (the merge of
// every registry, plus /trace); over several planes one more listener
// per plane (printed metrics0=, metrics1=, …) keeps per-plane truth
// scrapeable. -fleet starts a FleetScraper polling the per-plane
// endpoints (the -metrics one for a single plane) into the /fleet
// health surface.
func serveMain(args []string) {
	fs := flag.NewFlagSet("vapro serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address for the fragment wire listener")
	metrics := fs.String("metrics", "127.0.0.1:0", "address for the metrics HTTP endpoint (empty disables)")
	ranks := fs.Int("ranks", 256, "client ranks the pool is provisioned for")
	shards := fs.Int("shards", 1, "shard servers to run (>1 starts a rank-sharded tier, one wire listener per shard)")
	fleet := fs.String("fleet", "", "address for the fleet scraper endpoint (empty disables)")
	journal := fs.String("journal", "", "directory for the crash-safe delivery journal (sharded mode writes shard<N>/ subdirectories; empty disables)")
	journalMaxBytes := fs.Int64("journal-max-bytes", 0, "reclaim oldest journal segments past this many bytes (0 = unbounded)")
	journalMaxAge := fs.Duration("journal-max-age", 0, "reclaim journal segments older than this (0 = unbounded)")
	drain := fs.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight connections before force-closing them")
	_ = fs.Parse(args)
	n := max(*shards, 1)

	pool := collector.NewShardedPool(*ranks, n, collector.DefaultOptions())
	mon := collector.NewMonitor(pool, collector.DefaultMonitorOptions(*ranks))
	// A plane's own surfaces — its journal directory, its metrics
	// listener — are named apart from the pool's only when there are
	// several planes.
	perPlane := n > 1

	// One journal per plane: a single plane's in DIR itself, a shard's
	// in its own shard<i>/ subdirectory (its sequence space is its
	// resident ranks'), so a single shard's crash replays independently
	// of the others. Open (recovering torn tails), replay the delivered
	// stream through the monitor's sink — rebuilding fragment logs,
	// sequence state and the global watermark exactly as the pre-crash
	// process held them — and only then attach, so the wire server
	// journals new frames behind the replayed ones.
	jlogs := make([]*wal.Log, n)
	if *journal != "" {
		replayed := 0
		for i := range jlogs {
			dir := *journal
			if perPlane {
				dir = filepath.Join(dir, fmt.Sprintf("shard%d", i))
			}
			sink := mon.WireSink(i)
			jlogs[i] = openJournal(dir, sink.Metrics(), *journalMaxBytes, *journalMaxAge)
			k, err := collector.ReplayJournal(jlogs[i], sink)
			if err != nil {
				fatal(err)
			}
			replayed += k
			pool.Plane(i).AttachJournal(jlogs[i])
		}
		fmt.Printf("journal=%s replayed=%d\n", *journal, replayed)
	}

	srvs := make([]*collector.WireServer, n)
	addrs := make([]string, n)
	for i := range srvs {
		bind := "127.0.0.1:0"
		if i == 0 {
			bind = *listen
		}
		ln := mustListen(bind)
		addrs[i] = ln.Addr().String()
		srvs[i] = collector.ServeWire(ln, mon.WireSink(i))
		srvs[i].SetDrainTimeout(*drain)
	}
	// Publish the live map — one entry naming this server for a single
	// plane — so ShardDialer clients (vapro feed) bootstrap against any
	// deployment exactly the same way.
	if err := pool.Rebalance(addrs); err != nil {
		fatal(err)
	}
	fmt.Printf("wire=%s\n", addrs[0])
	for i := 1; i < n; i++ {
		fmt.Printf("wire%d=%s\n", i, addrs[i])
	}

	var https []*http.Server
	serveHTTP := func(ln net.Listener, h http.Handler) {
		s := &http.Server{Handler: h}
		https = append(https, s)
		go func() { _ = s.Serve(ln) }()
	}
	shardMet := make([]string, n)
	if *metrics != "" {
		mln := mustListen(*metrics)
		serveHTTP(mln, pool.Handler())
		shardMet[0] = mln.Addr().String()
		fmt.Printf("metrics=%s\n", mln.Addr())
		// The per-plane endpoints: the fleet scraper's targets, and the
		// ground truth for "fleet sum == Σ shard counters" checks.
		if perPlane {
			for i := range shardMet {
				sln := mustListen("127.0.0.1:0")
				shardMet[i] = sln.Addr().String()
				serveHTTP(sln, pool.Plane(i).Metrics().Handler())
				fmt.Printf("metrics%d=%s\n", i, shardMet[i])
			}
		}
	}
	var fstop chan struct{}
	if *fleet != "" {
		if *metrics == "" {
			fmt.Fprintln(os.Stderr, "vapro serve: -fleet needs -metrics (the per-shard endpoints are its scrape targets)")
			os.Exit(2)
		}
		fln := mustListen(*fleet)
		fsc := collector.NewFleetScraper(shardMet, collector.FleetOptions{Interval: time.Second})
		fstop = make(chan struct{})
		go fsc.Run(fstop)
		serveHTTP(fln, fsc.Handler())
		fmt.Printf("fleet=%s\n", fln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if fstop != nil {
		close(fstop)
	}
	for _, s := range https {
		_ = s.Close()
	}
	for _, srv := range srvs {
		_ = srv.Close()
	}
	pool.Close()
	for _, l := range jlogs {
		if l != nil {
			_ = l.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vapro serve:", err)
	os.Exit(1)
}

func mustListen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	return ln
}

// openJournal opens a delivery journal with its metrics registered on
// the given surface (the `vapro status` journal row reads them). Any
// open failure is fatal: the operator asked for durability, so serving
// without it would be silent data-loss-on-crash.
func openJournal(dir string, met *collector.Metrics, maxBytes int64, maxAge time.Duration) *wal.Log {
	l, err := wal.Open(dir, wal.Options{
		MaxBytes: maxBytes,
		MaxAge:   maxAge,
		Metrics:  wal.NewMetrics(met.Registry, "journal"),
	})
	if err != nil {
		fatal(err)
	}
	wal.RegisterOldestAge(met.Registry, "journal", l)
	return l
}

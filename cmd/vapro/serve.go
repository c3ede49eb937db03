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
// Observability: -metrics is the one HTTP listener. It serves the
// pool's merged registry view, /trace and the /fleet health view; the
// pool's health is also evaluated once a second, so its series keep
// history between reads.
func serveMain(args []string) {
	fs := flag.NewFlagSet("vapro serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address for the fragment wire listener")
	metrics := fs.String("metrics", "127.0.0.1:0", "address for the metrics HTTP endpoint (empty disables)")
	ranks := fs.Int("ranks", 256, "client ranks the pool is provisioned for")
	shards := fs.Int("shards", 1, "shard servers to run (>1 starts a rank-sharded tier, one wire listener per shard)")
	journal := fs.String("journal", "", "directory for the crash-safe delivery journal (sharded mode writes shard<N>/ subdirectories; empty disables)")
	journalMaxBytes := fs.Int64("journal-max-bytes", 0, "reclaim oldest journal segments past this many bytes (0 = unbounded)")
	journalMaxAge := fs.Duration("journal-max-age", 0, "reclaim journal segments older than this (0 = unbounded)")
	drain := fs.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight connections before force-closing them")
	_ = fs.Parse(args)
	n := max(*shards, 1)

	pool := collector.NewShardedPool(*ranks, n, collector.DefaultOptions())
	// The monitor observes the pool: every batch any plane stages, live
	// or replayed, advances its watermark and ticks the windows.
	collector.NewMonitor(pool, collector.DefaultMonitorOptions(*ranks))
	// A plane's journal directory is named apart from the pool's only
	// when there are several planes.
	perPlane := n > 1

	// One journal per plane: a single plane's in DIR itself, a shard's
	// in its own shard<i>/ subdirectory (its sequence space is its
	// resident ranks'), so a single shard's crash replays independently
	// of the others. Open (recovering torn tails), replay the delivered
	// stream through the plane's sink — rebuilding fragment logs,
	// sequence state and, through the monitor observing the pool, the
	// global watermark exactly as the pre-crash process held them — and
	// only then attach, so the wire server journals new frames behind
	// the replayed ones.
	jlogs := make([]*wal.Log, n)
	if *journal != "" {
		replayed := 0
		for i := range jlogs {
			dir := *journal
			if perPlane {
				dir = filepath.Join(dir, fmt.Sprintf("shard%d", i))
			}
			sink := pool.WireSink(i)
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
		srvs[i] = collector.ServeWire(ln, pool.WireSink(i))
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

	var hsrv *http.Server
	hstop := make(chan struct{})
	if *metrics != "" {
		mln := mustListen(*metrics)
		hsrv = &http.Server{Handler: pool.Handler()}
		go func() { _ = hsrv.Serve(mln) }()
		fmt.Printf("metrics=%s\n", mln.Addr())
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case now := <-tick.C:
					pool.Health(now.UnixNano())
				case <-hstop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(hstop)
	if hsrv != nil {
		_ = hsrv.Close()
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

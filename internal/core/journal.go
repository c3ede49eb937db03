package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vapro/internal/collector"
	"vapro/internal/detect"
	"vapro/internal/sim"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// runInfoFile names the file a recorded run keeps beside its journal's
// segments: what the frames cannot carry.
const runInfoFile = "run.json"

type runInfo struct {
	App        string            `json:"app"`
	Ranks      int               `json:"ranks"`
	MakespanNS int64             `json:"makespan_ns"`
	SiteNames  map[uint64]string `json:"site_names"`
}

// SaveRunInfo writes dir/run.json, the app, rank count, makespan and
// call-site names of a run journaled into dir (Options.Journal), so
// AnalyzeJournal reports the run under its own name and makespan.
func (r *Result) SaveRunInfo(dir string) error {
	data, err := json.Marshal(runInfo{App: r.App.Name, Ranks: r.Ranks, MakespanNS: int64(r.Makespan), SiteNames: r.SiteNames})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, runInfoFile), data, 0o644)
}

// AnalyzeJournal rebuilds an analysis Result from a delivery journal:
// the segments a recorded run (Options.Journal) or `vapro serve
// -journal` wrote into dir, or a sharded serve's shard<i>/
// subdirectories. Journal i replays into plane i of a pool with as many
// planes, so every rank is owned by the plane that owned it live, and
// the Result is built from the pool's graph as a traced run's is. The
// Result's Pool is the replayed pool: its window grid and range
// queries answer what the live server's did.
//
// App, ranks, makespan and call-site names come from dir/run.json when
// present. Without it the makespan is the last fragment's end. The rank
// space is the largest of run.json's, the journaled frames' and ranks.
func AnalyzeJournal(dir string, ranks int, dopt detect.Options) (*Result, error) {
	dirs, err := journalDirs(dir)
	if err != nil {
		return nil, err
	}
	info := runInfo{App: "journal"}
	if data, err := os.ReadFile(filepath.Join(dir, runInfoFile)); err == nil {
		if err := json.Unmarshal(data, &info); err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, runInfoFile), err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	// Recover every log (truncating torn tails) and size the rank space
	// off the journaled frames themselves, so no frame's rank falls
	// outside it whatever run.json says.
	logs := make([]*wal.Log, 0, len(dirs))
	defer func() {
		for _, l := range logs {
			_ = l.Close()
		}
	}()
	for _, d := range dirs {
		l, err := wal.Open(d, wal.Options{})
		if err != nil {
			return nil, err
		}
		logs = append(logs, l)
		err = l.Replay(func(payload []byte) error {
			meta, _, derr := trace.DecodeBatchMeta(payload)
			if derr != nil {
				return fmt.Errorf("undecodable journaled frame in %s: %w", d, derr)
			}
			ranks = max(ranks, meta.Rank+1)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	ranks = max(ranks, info.Ranks)

	// Replay through the collector path, sequence observation included.
	// Planes replay one after the other: ranks never span planes, so
	// each rank's frame order is exactly its original delivery order.
	copt := collector.DefaultOptions()
	copt.Detect = dopt
	pool := collector.NewShardedPool(ranks, len(logs), copt)
	replayed := 0
	for i, l := range logs {
		n, err := collector.ReplayJournal(l, pool.WireSink(i))
		if err != nil {
			return nil, err
		}
		replayed += n
	}
	if replayed == 0 {
		return nil, fmt.Errorf("journal %s holds no frames", dir)
	}
	res := &Result{
		Ranks:      ranks,
		Makespan:   sim.Duration(info.MakespanNS),
		Pool:       pool,
		SiteNames:  info.SiteNames,
		clusterOpt: dopt.Cluster,
	}
	res.App.Name = info.App
	res.analyze(dopt)
	if _, end, ok := res.Graph.Bounds(); ok && res.Makespan == 0 {
		res.Makespan = sim.Duration(end)
	}
	return res, nil
}

// journalDirs resolves the journal layout: a one-plane journal is
// segments directly in dir; a sharded serve writes one shard<i>/
// subdirectory per plane, returned at index i — by the number in its
// name, not lexically (shard10 sorts before shard2) — and every shard
// of the tier must be there.
func journalDirs(dir string) ([]string, error) {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) > 0 {
		return []string{dir}, nil
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard*"))
	byIndex := map[int]string{}
	for _, s := range shards {
		i, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(s), "shard"))
		if fi, serr := os.Stat(s); err == nil && i >= 0 && serr == nil && fi.IsDir() {
			byIndex[i] = s
		}
	}
	if len(byIndex) == 0 {
		return nil, fmt.Errorf("no journal segments or shard*/ subdirectories under %s", dir)
	}
	out := make([]string, len(byIndex))
	for i, s := range byIndex {
		if i >= len(out) {
			return nil, fmt.Errorf("%s: shard directories are not shard0..shard%d", dir, len(out)-1)
		}
		out[i] = s
	}
	return out, nil
}

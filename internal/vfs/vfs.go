// Package vfs simulates a shared distributed file system (the paper's
// IO substrate, a Lustre-like store on Tianhe-2A). It models the costs
// that drive the RAxML case study: per-operation metadata latency that
// is expensive for small files, bandwidth-limited data transfer, shared
// contention, and injected IO noise. It also provides the client-side
// file buffer the paper implements as the fix, so Figure 19's
// before/after comparison can be reproduced end to end.
package vfs

import (
	"fmt"
	"sync"

	"vapro/internal/sim"
)

// CostModel parameterizes the file system.
type CostModel struct {
	MetaLatency  sim.Duration // per open/close/stat round trip
	OpLatency    sim.Duration // per read/write request round trip
	ReadGap      float64      // ns per byte read
	WriteGap     float64      // ns per byte written
	JitterStddev float64      // relative lognormal-ish service jitter
}

// DefaultCostModel resembles a busy shared parallel file system.
func DefaultCostModel() CostModel {
	return CostModel{
		MetaLatency:  250 * sim.Microsecond,
		OpLatency:    80 * sim.Microsecond,
		ReadGap:      1.0, // ~1 GB/s per client stream
		WriteGap:     1.4,
		JitterStddev: 0.08,
	}
}

// FS is a simulated distributed file system shared by all ranks.
// It tracks file sizes (contents are irrelevant to timing) and serves
// operations with the cost model above.
type FS struct {
	mu    sync.Mutex
	cost  CostModel
	env   sim.Environment
	files map[string]int64 // path -> size
	rng   *sim.RNG
}

// New creates a file system under environment env (for IO noise) with
// randomness derived from seed.
func New(env sim.Environment, seed uint64) *FS {
	if env == nil {
		env = sim.IdealEnv{}
	}
	return &FS{
		cost:  DefaultCostModel(),
		env:   env,
		files: make(map[string]int64),
		rng:   sim.NewRNG(seed).Split(0xF5),
	}
}

// Create pre-populates a file of the given size (test fixtures, input
// data sets) without charging any virtual time.
func (fs *FS) Create(path string, size int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = size
}

// Size returns the current size of path (0 if absent).
func (fs *FS) Size(path string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.files[path]
}

// jittered scales d by the IO slowdown at (node, t) and a service-time
// jitter draw. The FS mutex must not be held (env may be slow).
func (fs *FS) jittered(d sim.Duration, node int, t sim.Time, rng *sim.RNG) sim.Duration {
	slow := fs.env.At(node, 0, t).IOSlowdown
	if slow < 1 {
		slow = 1
	}
	f := slow
	if fs.cost.JitterStddev > 0 {
		f *= rng.Jitter(fs.cost.JitterStddev)
	}
	out := sim.Duration(float64(d) * f)
	if out < 1 {
		out = 1
	}
	return out
}

// File is an open handle. Handles are not safe for concurrent use; each
// rank opens its own.
type File struct {
	fs     *FS
	path   string
	offset int64
	append bool
}

// OpenMode selects open semantics.
type OpenMode int

// Open modes.
const (
	ReadOnly OpenMode = iota
	WriteTrunc
	WriteAppend
)

// Open opens path at virtual time t from a client on node, creating the
// file for write modes. It returns the handle and the elapsed time of
// the call (one metadata round trip).
func (fs *FS) Open(path string, mode OpenMode, node int, t sim.Time, rng *sim.RNG) (*File, sim.Duration, error) {
	fs.mu.Lock()
	_, ok := fs.files[path]
	switch mode {
	case ReadOnly:
		if !ok {
			fs.mu.Unlock()
			return nil, fs.jittered(fs.cost.MetaLatency, node, t, rng), fmt.Errorf("vfs: open %s: no such file", path)
		}
	case WriteTrunc:
		fs.files[path] = 0
	case WriteAppend:
		if !ok {
			fs.files[path] = 0
		}
	}
	size := fs.files[path]
	fs.mu.Unlock()

	f := &File{fs: fs, path: path, append: mode == WriteAppend}
	if mode == WriteAppend {
		f.offset = size
	}
	return f, fs.jittered(fs.cost.MetaLatency, node, t, rng), nil
}

// Path returns the file path.
func (f *File) Path() string { return f.path }

// Offset returns the current file offset.
func (f *File) Offset() int64 { return f.offset }

// SeekTo sets the absolute offset. It costs nothing (client-side).
func (f *File) SeekTo(offset int64) {
	if offset < 0 {
		offset = 0
	}
	f.offset = offset
}

// Read transfers up to n bytes from the current offset. It returns the
// bytes actually read and the elapsed time of the call.
func (f *File) Read(n int, node int, t sim.Time, rng *sim.RNG) (int, sim.Duration) {
	f.fs.mu.Lock()
	size := f.fs.files[f.path]
	f.fs.mu.Unlock()
	avail := size - f.offset
	if avail < 0 {
		avail = 0
	}
	if int64(n) > avail {
		n = int(avail)
	}
	f.offset += int64(n)
	d := f.fs.cost.OpLatency + sim.Duration(float64(n)*f.fs.cost.ReadGap)
	return n, f.fs.jittered(d, node, t, rng)
}

// Write appends or overwrites n bytes at the current offset and returns
// the elapsed time of the call.
func (f *File) Write(n int, node int, t sim.Time, rng *sim.RNG) sim.Duration {
	f.fs.mu.Lock()
	f.offset += int64(n)
	if f.offset > f.fs.files[f.path] {
		f.fs.files[f.path] = f.offset
	}
	f.fs.mu.Unlock()
	d := f.fs.cost.OpLatency + sim.Duration(float64(n)*f.fs.cost.WriteGap)
	return f.fs.jittered(d, node, t, rng)
}

// Close releases the handle (one metadata round trip).
func (f *File) Close(node int, t sim.Time, rng *sim.RNG) sim.Duration {
	return f.fs.jittered(f.fs.cost.MetaLatency/2, node, t, rng)
}

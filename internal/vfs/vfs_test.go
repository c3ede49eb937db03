package vfs

import (
	"testing"

	"vapro/internal/sim"
)

func testFS() (*FS, *sim.RNG) {
	return New(sim.IdealEnv{}, 1), sim.NewRNG(2)
}

func TestOpenMissingFile(t *testing.T) {
	fs, rng := testFS()
	_, d, err := fs.Open("/nope", ReadOnly, 0, 0, rng)
	if err == nil {
		t.Fatal("open of missing file succeeded")
	}
	if d <= 0 {
		t.Fatal("failed open must still cost a metadata round trip")
	}
}

func TestCreateAndRead(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/a", 1000)
	if fs.Size("/a") != 1000 {
		t.Fatal("Create not visible")
	}
	f, _, err := fs.Open("/a", ReadOnly, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, d := f.Read(600, 0, 0, rng)
	if n != 600 || d <= 0 {
		t.Fatalf("read %d in %v", n, d)
	}
	// Read past EOF is truncated.
	n, _ = f.Read(600, 0, 0, rng)
	if n != 400 {
		t.Fatalf("EOF truncation: got %d, want 400", n)
	}
	n, _ = f.Read(10, 0, 0, rng)
	if n != 0 {
		t.Fatalf("read at EOF returned %d", n)
	}
}

func TestWriteModes(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/w", 500)

	// Truncate.
	f, _, err := fs.Open("/w", WriteTrunc, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Size("/w") != 0 {
		t.Fatal("WriteTrunc did not truncate")
	}
	f.Write(100, 0, 0, rng)
	if fs.Size("/w") != 100 {
		t.Fatalf("size after write: %d", fs.Size("/w"))
	}

	// Append continues from the end.
	g, _, err := fs.Open("/w", WriteAppend, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(50, 0, 0, rng)
	if fs.Size("/w") != 150 {
		t.Fatalf("size after append: %d", fs.Size("/w"))
	}
}

func TestSeek(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/s", 100)
	f, _, _ := fs.Open("/s", ReadOnly, 0, 0, rng)
	f.SeekTo(90)
	if n, _ := f.Read(100, 0, 0, rng); n != 10 {
		t.Fatalf("read after seek: %d", n)
	}
	f.SeekTo(-5)
	if f.Offset() != 0 {
		t.Fatal("negative seek not clamped")
	}
}

func TestReadCostScalesWithSize(t *testing.T) {
	fs, rng := testFS()
	fs.cost = CostModel{MetaLatency: 100, OpLatency: 100, ReadGap: 1, WriteGap: 1}
	fs.Create("/big", 10<<20)
	f, _, _ := fs.Open("/big", ReadOnly, 0, 0, rng)
	_, dSmall := f.Read(1<<10, 0, 0, rng)
	_, dBig := f.Read(1<<20, 0, 0, rng)
	if dBig < 100*dSmall {
		t.Fatalf("1MB read (%v) should dwarf 1KB read (%v)", dBig, dSmall)
	}
}

func TestIONoiseSlowsOps(t *testing.T) {
	slow := New(ioEnv{10}, 1)
	quiet := New(sim.IdealEnv{}, 1)
	rng1, rng2 := sim.NewRNG(3), sim.NewRNG(3)
	slow.Create("/f", 1<<20)
	quiet.Create("/f", 1<<20)
	fq, dq, _ := quiet.Open("/f", ReadOnly, 0, 0, rng1)
	fl, dl, _ := slow.Open("/f", ReadOnly, 0, 0, rng2)
	if dl <= dq {
		t.Fatalf("noisy open (%v) not slower than quiet (%v)", dl, dq)
	}
	_, rq := fq.Read(1<<20, 0, 0, rng1)
	_, rl := fl.Read(1<<20, 0, 0, rng2)
	if rl <= rq {
		t.Fatalf("noisy read (%v) not slower than quiet (%v)", rl, rq)
	}
}

type ioEnv struct{ slow float64 }

func (e ioEnv) At(node, core int, t sim.Time) sim.Conditions {
	c := sim.Ideal()
	c.IOSlowdown = e.slow
	return c
}

func TestOpenKeepsPath(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/x", 10)
	a, _, _ := fs.Open("/x", ReadOnly, 0, 0, rng)
	if a.Path() != "/x" {
		t.Fatalf("path: %q", a.Path())
	}
}

func TestBufferAbsorbsRereads(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/small", 48<<10)
	b := NewBuffer(fs)

	if b.Cached("/small") {
		t.Fatal("cached before first read")
	}
	_, first, err := b.ReadFile("/small", 0, 48<<10, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached("/small") {
		t.Fatal("not cached after first read")
	}
	_, second, err := b.ReadFile("/small", 0, 48<<10, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if second*10 > first {
		t.Fatalf("buffered reread (%v) should be at least 10x cheaper than cold (%v)", second, first)
	}
}

func TestBufferOpenLocal(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/f", 100)
	b := NewBuffer(fs)
	if _, ok := b.OpenLocal("/f"); ok {
		t.Fatal("OpenLocal succeeded before caching")
	}
	b.ReadFile("/f", 0, 100, 0, 0, rng)
	d, ok := b.OpenLocal("/f")
	if !ok || d <= 0 {
		t.Fatalf("OpenLocal after caching: %v %v", d, ok)
	}
}

func TestBufferMissingFile(t *testing.T) {
	fs, rng := testFS()
	b := NewBuffer(fs)
	if _, _, err := b.ReadFile("/ghost", 0, 10, 0, 0, rng); err == nil {
		t.Fatal("buffered read of missing file succeeded")
	}
}

func TestBufferOffsetBounds(t *testing.T) {
	fs, rng := testFS()
	fs.Create("/f", 100)
	b := NewBuffer(fs)
	n, _, _ := b.ReadFile("/f", 90, 50, 0, 0, rng)
	if n != 10 {
		t.Fatalf("tail read got %d, want 10", n)
	}
	n, _, _ = b.ReadFile("/f", 200, 50, 0, 0, rng)
	if n != 0 {
		t.Fatalf("past-EOF read got %d", n)
	}
}

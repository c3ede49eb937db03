package mpi

import (
	"testing"

	"vapro/internal/sim"
)

func smallWorld(size int) *World {
	m := sim.NewMachine(sim.Config{Nodes: 2, CoresPerNode: (size + 1) / 2, FreqGHz: 2, Seed: 1})
	return NewWorld(size, m, sim.IdealEnv{})
}

func TestSendRecvBasics(t *testing.T) {
	w := smallWorld(2)
	var got int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 1024)
		} else {
			n, _ := r.Recv(0, 7)
			got = n
		}
	})
	if got != 1024 {
		t.Fatalf("payload size %d", got)
	}
}

// Causality: a receive can never complete before the matching send
// started plus the wire latency.
func TestRecvCausality(t *testing.T) {
	w := smallWorld(2)
	var sendStart, recvEnd sim.Time
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(sim.Workload{Instructions: 1e6, MemRatio: 0.5, WorkingSet: 1 << 20})
			sendStart = r.Clock()
			r.Send(1, 1, 4096)
		} else {
			r.Recv(0, 1)
			recvEnd = r.Clock()
		}
	})
	if recvEnd <= sendStart {
		t.Fatalf("receive completed at %v before send started at %v", recvEnd, sendStart)
	}
}

// FIFO per (src, tag): message order from one sender is preserved.
func TestP2PFIFO(t *testing.T) {
	w := smallWorld(2)
	var sizes []int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 1; i <= 10; i++ {
				r.Send(1, 3, i*100)
			}
		} else {
			for i := 1; i <= 10; i++ {
				n, _ := r.Recv(0, 3)
				sizes = append(sizes, n)
			}
		}
	})
	for i, n := range sizes {
		if n != (i+1)*100 {
			t.Fatalf("out-of-order delivery: %v", sizes)
		}
	}
}

func TestTagMatching(t *testing.T) {
	w := smallWorld(2)
	var first, second int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, 555)
			r.Send(1, 4, 444)
		} else {
			// Receive in reverse tag order; matching must be by tag,
			// not arrival.
			first, _ = r.Recv(0, 4)
			second, _ = r.Recv(0, 5)
		}
	})
	if first != 444 || second != 555 {
		t.Fatalf("tag matching failed: %d %d", first, second)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := smallWorld(3)
	var got int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 1:
			r.Send(0, 9, 123)
		case 0:
			n, _ := r.Recv(AnySource, AnyTag)
			got = n
		}
	})
	if got != 123 {
		t.Fatalf("wildcard receive got %d", got)
	}
}

func TestNonblocking(t *testing.T) {
	w := smallWorld(2)
	var got int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			q := r.Isend(1, 2, 2048)
			r.Wait(q)
		} else {
			q := r.Irecv(0, 2)
			r.Compute(sim.Workload{Instructions: 1e5, MemRatio: 0.5, WorkingSet: 1 << 20})
			r.Wait(q)
			got = q.Bytes()
		}
	})
	if got != 2048 {
		t.Fatalf("Irecv bytes %d", got)
	}
}

func TestWaitall(t *testing.T) {
	w := smallWorld(2)
	total := 0
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Wait(r.Isend(1, i, 100))
			}
		} else {
			var qs []*Request
			for i := 0; i < 5; i++ {
				qs = append(qs, r.Irecv(0, i))
			}
			for _, q := range qs {
				r.Wait(q)
				total += q.Bytes()
			}
		}
	})
	if total != 500 {
		t.Fatalf("Waitall total %d", total)
	}
}

// Barrier semantics: everyone leaves at or after the last arrival.
func TestBarrierSynchronizes(t *testing.T) {
	w := smallWorld(4)
	arrive := make([]sim.Time, 4)
	leave := make([]sim.Time, 4)
	w.Run(func(r *Rank) {
		// Rank i computes i+1 units before the barrier.
		for i := 0; i <= r.ID(); i++ {
			r.Compute(sim.Workload{Instructions: 1e6, MemRatio: 0.3, WorkingSet: 1 << 20})
		}
		arrive[r.ID()] = r.Clock()
		r.Barrier()
		leave[r.ID()] = r.Clock()
	})
	var maxArrive sim.Time
	for _, a := range arrive {
		if a > maxArrive {
			maxArrive = a
		}
	}
	for i, l := range leave {
		if l < maxArrive {
			t.Fatalf("rank %d left barrier at %v before last arrival %v", i, l, maxArrive)
		}
	}
	// All leave together.
	for i := 1; i < 4; i++ {
		if leave[i] != leave[0] {
			t.Fatalf("ranks left barrier at different times: %v", leave)
		}
	}
}

func TestCollectivesComplete(t *testing.T) {
	w := smallWorld(8)
	clocks := w.Run(func(r *Rank) {
		r.Bcast(0, 1024)
		r.Reduce(0, 512)
		r.Allreduce(64)
		r.Alltoall(256)
		r.Allgather(128)
		r.Gather(0, 128)
		r.Barrier()
	})
	for i, c := range clocks {
		if c <= 0 {
			t.Fatalf("rank %d clock did not advance: %v", i, c)
		}
		if c != clocks[0] {
			t.Fatalf("collective-only program must end synchronized: %v", clocks)
		}
	}
}

func TestAllreduceCostGrowsWithSize(t *testing.T) {
	small := smallWorld(2).Run(func(r *Rank) { r.Allreduce(64) })
	big := smallWorld(2).Run(func(r *Rank) { r.Allreduce(1 << 20) })
	if big[0] <= small[0] {
		t.Fatalf("1MB allreduce (%v) not slower than 64B (%v)", big[0], small[0])
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []sim.Time {
		w := smallWorld(6)
		return w.Run(func(r *Rank) {
			left := (r.ID() + 5) % 6
			right := (r.ID() + 1) % 6
			for i := 0; i < 20; i++ {
				q := r.Irecv(left, 1)
				r.Send(right, 1, 4096)
				r.Compute(sim.Workload{Instructions: 1e5, MemRatio: 0.5, WorkingSet: 1 << 20})
				r.Wait(q)
			}
			r.Allreduce(8)
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual time not deterministic: rank %d %v vs %v", i, a[i], b[i])
		}
	}
}

func TestManyRanksNoDeadlock(t *testing.T) {
	m := sim.NewMachine(sim.Config{Nodes: 8, CoresPerNode: 32, FreqGHz: 2, Seed: 1})
	w := NewWorld(256, m, sim.IdealEnv{})
	clocks := w.Run(func(r *Rank) {
		left := (r.ID() + 255) % 256
		right := (r.ID() + 1) % 256
		for i := 0; i < 5; i++ {
			q := r.Irecv(left, 0)
			r.Send(right, 0, 1024)
			r.Wait(q)
			r.Allreduce(8)
		}
	})
	if len(clocks) != 256 {
		t.Fatalf("clocks: %d", len(clocks))
	}
}

func TestNetworkNoiseSlowsTransfers(t *testing.T) {
	m := sim.NewMachine(sim.Config{Nodes: 2, CoresPerNode: 1, FreqGHz: 2, Seed: 1})
	run := func(env sim.Environment) sim.Duration {
		w := NewWorld(2, m, env)
		var elapsed sim.Duration
		w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 0, 1<<20)
			} else {
				_, elapsed = r.Recv(0, 0)
			}
		})
		return elapsed
	}
	quiet := run(sim.IdealEnv{})
	loud := run(netEnv{4})
	if loud <= quiet {
		t.Fatalf("network noise had no effect: %v vs %v", loud, quiet)
	}
}

type netEnv struct{ slow float64 }

func (e netEnv) At(node, core int, t sim.Time) sim.Conditions {
	c := sim.Ideal()
	c.NetSlowdown = e.slow
	return c
}

func TestRankPanicsOnBadPeer(t *testing.T) {
	w := smallWorld(2)
	panicked := false
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Send(99, 0, 1)
	})
	if !panicked {
		t.Fatal("Send to out-of-range rank did not panic")
	}
}

func TestSendrecv(t *testing.T) {
	w := smallWorld(4)
	w.Run(func(r *Rank) {
		right := (r.ID() + 1) % 4
		left := (r.ID() + 3) % 4
		n, d := r.Sendrecv(right, 9, 1000+r.ID(), left, 9)
		if n != 1000+left {
			t.Errorf("rank %d sendrecv got %d", r.ID(), n)
		}
		if d <= 0 {
			t.Error("no elapsed time")
		}
	})
}

func TestInterNodeCostsMore(t *testing.T) {
	m := sim.NewMachine(sim.Config{Nodes: 2, CoresPerNode: 2, FreqGHz: 2, Seed: 1})
	w := NewWorld(4, m, sim.IdealEnv{}) // ranks 0,1 node 0; ranks 2,3 node 1
	var intra, inter sim.Duration
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, 1<<20) // same node
			r.Send(2, 1, 1<<20) // cross node
		case 1:
			_, intra = r.Recv(0, 0)
		case 2:
			_, inter = r.Recv(0, 1)
		}
	})
	if inter <= intra {
		t.Fatalf("inter-node transfer (%v) not slower than intra-node (%v)", inter, intra)
	}
}

func TestCollectiveSlotReuse(t *testing.T) {
	// Many collectives in sequence must not leak slots.
	w := smallWorld(4)
	w.Run(func(r *Rank) {
		for i := 0; i < 200; i++ {
			r.Barrier()
		}
	})
	w.collMu.Lock()
	n := len(w.collSlots)
	w.collMu.Unlock()
	if n != 0 {
		t.Fatalf("%d collective slots leaked", n)
	}
}

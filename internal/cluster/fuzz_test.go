package cluster_test

import (
	"slices"
	"testing"

	"vapro/internal/cluster"
	"vapro/internal/stg"
	"vapro/internal/trace"
)

// FuzzIncremental1D is the native form of the 1-D equivalence fuzz:
// the input bytes script one computation element's appends, and after
// every advance Cache.RunInc must agree with a cold Run on the same log
// through ClusterOf, its Delta must describe the step, and the Result
// of the advance before must still read as it did. The script is
// text-shaped:
//
//	byte 0       options, low two bits: 1 MinFragments 2,
//	             2 Threshold 0.2 (so '0'…'3')
//	'0'…'9'      a fragment of class d: TotIns d·100 000 ('0': a zero norm)
//	'a'…'z'      TotIns 2^53 + c, past where float64 tells integers apart
//	'A'…'Z'      TotIns 2^63 + c·2^10, the top of the uint64 range
//	'*'          the previous fragment 127 more times (a chunk is 1 024 rows)
//	'+'          a fragment 6 % above the previous one: a band of its own
//	             (a 257th live label widens the lane)
//	0x80…0xff    the next fragment's TotIns grows by (b-0x80) per mille
//	anything     else: advance (RunInc, then the checks)
//
// An advance reads TOT_INS back through a table of the log's lanes, one
// per chunk, whose last entry it refreshes: a run of one value keeps a
// chunk's lane constant until a later row differs, and a lane of small
// deltas stays narrow until one does not fit an int32 ('a' after a
// digit), which the table must notice.
func FuzzIncremental1D(f *testing.F) {
	f.Add([]byte("011112.12.3*.4."))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		opt := cluster.DefaultOptions()
		if data[0]&1 != 0 {
			opt.MinFragments = 2
		}
		if data[0]&2 != 0 {
			opt.Threshold = 0.2
		}
		c := cluster.NewCache()
		key := cluster.EdgeKey(trace.EdgeKey{From: 1, To: 2})
		log := trace.NewLog(nil)
		var prev cluster.Result
		var prevOf []int
		havePrev := false
		permille := uint64(0)
		last := trace.Fragment{Kind: trace.Comp, Elapsed: 1000}
		advance := func(step int) {
			v := log.View()
			got, d := c.RunInc(key, stg.Gen{Count: uint64(v.Len())}, v, opt)
			if !sameClustering(got, cluster.Run(v, opt)) {
				t.Fatalf("step %d (%d fragments): incremental clustering diverges from Run", step, v.Len())
			}
			if havePrev && !slices.Equal(clusterOfAll(prev), prevOf) {
				t.Fatalf("step %d (%d fragments): the previous Result changed under the advance", step, v.Len())
			}
			if !d.Full && havePrev {
				checkDelta(t, 0, step, prev, got, d)
			}
			prev, prevOf, havePrev = got, clusterOfAll(got), true
		}
		for step, b := range data[1:] {
			fr := trace.Fragment{Kind: trace.Comp, Elapsed: 1000}
			switch {
			case b >= '0' && b <= '9':
				fr.Counters.TotIns = uint64(b-'0') * 100_000
			case b >= 'a' && b <= 'z':
				fr.Counters.TotIns = 1<<53 + uint64(b-'a')
			case b >= 'A' && b <= 'Z':
				fr.Counters.TotIns = 1<<63 + uint64(b-'A')<<10
			case b == '+':
				fr.Counters.TotIns = last.Counters.TotIns + last.Counters.TotIns*6/100 + 1
			case b == '*':
				for i := 0; i < 127; i++ {
					log.Append(&last)
				}
				continue
			case b >= 0x80:
				permille = uint64(b - 0x80)
				continue
			default:
				advance(step)
				continue
			}
			fr.Counters.TotIns += fr.Counters.TotIns / 1000 * permille
			permille = 0
			log.Append(&fr)
			last = fr
		}
		advance(len(data))
	})
}

// FuzzIncrementalMultiD is the native form of the multi-D equivalence
// fuzz: the input bytes script one element's appends, and after every
// advance Cache.RunInc must return what a cold Run on the same log does
// (sameClustering: its Clusters and every fragment's ClusterOf), its
// Delta must describe the step, and the Result of the advance before
// must still read as it did. No advance
// may fall back to a batch run (Delta.Full) unless the cache held no
// state to advance from — the first advance, or an element that was
// empty under UseExtraMetrics — or the element turned from all
// computation to multi-D. The script is text-shaped, so a committed
// corpus entry reads as what it does:
//
//	byte 0       options, low three bits: 1 UseExtraMetrics,
//	             2 MinFragments 2, 4 Threshold 0.2 (so '0'…'7')
//	'0'…'9'      a computation fragment of class d: TotIns (d+1)·100 000,
//	             LoadStores TotIns/(2+d%3)
//	'_'          a computation fragment with zero counts: a zero norm
//	'a'…'z'      a communication fragment of class c: Bytes 1 KiB << c%5,
//	             Peer c/5-1, Tag c%2 ('z': zero bytes)
//	'A'…'Z'      an IO fragment of class c: Bytes 4 KiB << c%4, FD 3+c%2,
//	             Mode c/4%3 ('Z': zero bytes)
//	'+'          the previous fragment again, its size (TotIns, or Bytes)
//	             6 % larger: a cluster of its own (a 257th live label
//	             widens the lane)
//	0x80…0xff    the next fragment's size grows by (b-0x80) per mille
//	anything     else: advance (RunInc, then the checks)
//
// A kind flip is any change of letter case or digit-to-letter: an
// element that was all computation turns multi-D there. Without
// UseExtraMetrics a computation fragment's vector is TOT_INS alone, so
// in a mixed element its norm is TotIns exactly: at the default
// threshold, a class 1 fragment grown by p per mille, p a multiple of
// 20, has for its band limit exactly the norm of one grown by p·1.05+50
// (the corpus's boundary-reach seeds use this).
func FuzzIncrementalMultiD(f *testing.F) {
	f.Add([]byte("0aaaab.aab.ba."))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		opt := cluster.DefaultOptions()
		opt.UseExtraMetrics = data[0]&1 != 0
		if data[0]&2 != 0 {
			opt.MinFragments = 2
		}
		if data[0]&4 != 0 {
			opt.Threshold = 0.2
		}
		c := cluster.NewCache()
		key := cluster.VertexKey(1)
		log := trace.NewLog(nil)
		var prev cluster.Result
		var prevOf []int
		var last trace.Fragment
		havePrev := false
		permille := 0
		multiD, wasMultiD := opt.UseExtraMetrics, false // the element, now and at the last advance
		advance := func(step int) {
			v := log.View()
			got, d := c.RunInc(key, stg.Gen{Count: uint64(v.Len())}, v, opt)
			if !sameClustering(got, cluster.Run(v, opt)) {
				t.Fatalf("step %d (%d fragments): incremental clustering diverges from Run", step, v.Len())
			}
			if havePrev && !slices.Equal(clusterOfAll(prev), prevOf) {
				t.Fatalf("step %d (%d fragments): the previous Result changed under the advance", step, v.Len())
			}
			fresh := !havePrev || opt.UseExtraMetrics && prev.Len() == 0
			if d.Full && !fresh && wasMultiD == multiD {
				t.Fatalf("step %d (%d fragments): the advance fell back to a batch run", step, v.Len())
			}
			if !d.Full && havePrev {
				checkDelta(t, 0, step, prev, got, d)
			}
			prev, prevOf, havePrev, wasMultiD = got, clusterOfAll(got), true, multiD
		}
		for step, b := range data[1:] {
			var fr trace.Fragment
			switch {
			case b == '_':
				fr.Kind = trace.Comp
			case b >= '0' && b <= '9':
				d := int(b - '0')
				fr.Kind = trace.Comp
				fr.Counters.TotIns = uint64(d+1) * 100_000
				fr.Counters.TotIns += fr.Counters.TotIns * uint64(permille) / 1000
				fr.Counters.LoadStores = fr.Counters.TotIns / uint64(2+d%3)
			case b >= 'a' && b <= 'z':
				cl := int(b - 'a')
				fr.Kind = trace.Comm
				fr.Args = trace.Args{Op: trace.Op("Send"), Bytes: 1024 << (cl % 5), Peer: cl/5 - 1, Tag: cl % 2}
			case b >= 'A' && b <= 'Z':
				cl := int(b - 'A')
				fr.Kind = trace.IO
				fr.Args = trace.Args{Op: trace.Op("write"), Bytes: 4096 << (cl % 4), FD: 3 + cl%2, Mode: cl / 4 % 3}
			case b == '+':
				fr = last
				if fr.Kind == trace.Comp {
					fr.Counters.TotIns += fr.Counters.TotIns*6/100 + 1
					fr.Counters.LoadStores += fr.Counters.LoadStores*6/100 + 1
				} else {
					fr.Args.Bytes += fr.Args.Bytes*6/100 + 1
				}
				log.Append(&fr)
				last = fr
				continue
			case b >= 0x80:
				permille = int(b - 0x80)
				continue
			default:
				advance(step)
				continue
			}
			if fr.Kind != trace.Comp {
				multiD = true
				if b == 'z' || b == 'Z' {
					fr.Args.Bytes = 0
				}
				fr.Args.Bytes += fr.Args.Bytes * permille / 1000
			}
			permille = 0
			log.Append(&fr)
			last = fr
		}
		advance(len(data))
	})
}

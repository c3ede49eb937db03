package diagnose

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vapro/internal/trace"
)

// addDense is the dense ClusterMoments.Add that the sparse fold
// replaced, kept verbatim as the reference it is pinned against bit for
// bit: an unconditional lo/hi fold and a full d×d rank-1 update.
func (c *ClusterMoments) addDense(frag *trace.Fragment) {
	k := len(c.factors)
	d := k + 2
	v := c.buf
	v[0] = 1
	for j, f := range c.factors {
		raw := Metric(f, frag)
		if c.n == 0 {
			c.shift[j] = raw
		}
		c.lo[j] = math.Min(c.lo[j], raw)
		c.hi[j] = math.Max(c.hi[j], raw)
		v[j+1] = raw - c.shift[j]
	}
	y := float64(frag.Elapsed)
	if c.n == 0 {
		c.shift[k] = y
	}
	c.lo[k] = math.Min(c.lo[k], y)
	c.hi[k] = math.Max(c.hi[k], y)
	v[k+1] = y - c.shift[k]
	for i := 0; i < d; i++ {
		row := c.m[i*d:]
		vi := v[i]
		for j := 0; j < d; j++ {
			row[j] += vi * v[j]
		}
	}
	c.n++
}

// magnitudes are the values a script names by one hex digit: small
// counts, the float64 integer-precision edge and the integer extremes
// (as SuspensionNS and Elapsed they read as int64: -1, MinInt64, …).
var magnitudes = [16]uint64{
	0, 1, 2, 3, 7, 1000, 123_456, 1 << 53,
	1<<53 + 1, math.MaxInt64, math.MaxUint64, math.MaxUint64 - 1,
	1 << 63, 1<<64 - 5, 999_983, 42,
}

func magnitude(b byte) uint64 {
	if i := strings.IndexByte("0123456789abcdef", b); i >= 0 {
		return magnitudes[i]
	}
	return magnitudes[b%16]
}

// setColumn writes OS counter column c (0 suspension, 1 soft PF, 2 hard
// PF, 3 voluntary CS, 4 involuntary CS, 5 signals) of f.
func setColumn(f *trace.Fragment, c int, x uint64) {
	cv := &f.Counters
	switch c {
	case 0:
		cv.SuspensionNS = int64(x)
	case 1:
		cv.SoftPF = x
	case 2:
		cv.HardPF = x
	case 3:
		cv.VolCS = x
	case 4:
		cv.InvolCS = x
	default:
		cv.Signals = x
	}
}

// maxMomentRows keeps one fuzz execution short.
const maxMomentRows = 300

// runMomentsScript feeds one row stream to the sparse Add and to
// addDense — for the full OS factor set, the full-rank leaf set, and the
// leaves plus a slot factor (frontend-bound reads elapsed, so a row whose
// OS counters are the first member's need not be at its shift) — and
// requires n, shift, lo, hi, every mirrored cell and QuantifyMoments to
// agree bitwise after every row. Scripts are printable, so the corpus
// reads as what it does (c is a column digit '0'..'5', v a hex digit
// naming a magnitude):
//
//	i      idle row: OS counters as they stand, elapsed steps (every 7th row repeats the first)
//	f      a row equal to the first member
//	a c v  arm column c at magnitude v, then a row
//	r c    return column c to the first member's value, then a row
//	A      arm every column (distinct values), then a row
//	x v    every column at magnitude v, then a row
//	e v    elapsed at magnitude v, then a row
func runMomentsScript(t *testing.T, script []byte) {
	slot := append(fullRankFactors(), FrontendBound)
	for _, factors := range [][]Factor{osFactorsUnderTest(), fullRankFactors(), slot} {
		got, want := NewClusterMoments(factors), NewClusterMoments(factors)
		cur := trace.Fragment{Kind: trace.Comp, Elapsed: 1_000_000,
			Counters: trace.CountersView{TotIns: 4_000_000, Cycles: 1_000_000, SlotsFrontend: 1_500_000}}
		var first trace.Fragment
		s := script
		next := func() byte {
			if len(s) == 0 {
				return 0
			}
			b := s[0]
			s = s[1:]
			return b
		}
		for rows := 0; len(s) > 0 && rows < maxMomentRows; rows++ {
			row := cur
			switch next() {
			case 'f':
				row = first
			case 'a':
				c := int(next()) % 6
				setColumn(&cur, c, magnitude(next()))
				row = cur
			case 'r':
				c := int(next()) % 6
				base := first
				if rows == 0 {
					base = cur
				}
				x := [6]uint64{uint64(base.Counters.SuspensionNS), base.Counters.SoftPF, base.Counters.HardPF,
					base.Counters.VolCS, base.Counters.InvolCS, base.Counters.Signals}[c]
				setColumn(&cur, c, x)
				row = cur
			case 'A':
				for c := 0; c < 6; c++ {
					setColumn(&cur, c, uint64(1+rows%5+3*c))
				}
				row = cur
			case 'x':
				x := magnitude(next())
				for c := 0; c < 6; c++ {
					setColumn(&cur, c, x)
				}
				row = cur
			case 'e':
				cur.Elapsed = int64(magnitude(next()))
				row = cur
			default: // 'i' and anything unassigned
				row.Elapsed = cur.Elapsed + int64(rows%7)*1_500
			}
			if rows == 0 {
				first = row
			}
			got.Add(&row)
			want.addDense(&row)
			sameMoments(t, rows, got, want)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMoments requires got (sparse, upper triangle) and want (dense) to
// hold bitwise the same accumulator, and to quantify identically.
func sameMoments(t *testing.T, row int, got, want *ClusterMoments) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("row %d: n %d, dense %d", row, got.n, want.n)
	}
	for j := range want.shift {
		if !sameBits(got.shift[j], want.shift[j]) || !sameBits(got.lo[j], want.lo[j]) || !sameBits(got.hi[j], want.hi[j]) {
			t.Fatalf("row %d column %d: shift/lo/hi %v/%v/%v, dense %v/%v/%v", row, j,
				got.shift[j], got.lo[j], got.hi[j], want.shift[j], want.lo[j], want.hi[j])
		}
	}
	d := len(want.factors) + 2
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if !sameBits(got.cell(i, j), want.m[i*d+j]) {
				t.Fatalf("row %d: cell (%d,%d) = %v, dense %v", row, i, j, got.cell(i, j), want.m[i*d+j])
			}
		}
	}
	qg := QuantifyMoments([]*ClusterMoments{got}, got.factors)
	qw := QuantifyMoments([]*ClusterMoments{want}, want.factors)
	if !sameQuant(qg, qw) {
		t.Fatalf("row %d: QuantifyMoments %+v, dense %+v", row, qg, qw)
	}
}

func sameQuant(a, b *OLSQuant) bool {
	if !sameBits(a.FGStat, b.FGStat) || !sameBits(a.FGPValue, b.FGPValue) || !sameBits(a.R2, b.R2) ||
		len(a.Dropped) != len(b.Dropped) || len(a.TimePerUnit) != len(b.TimePerUnit) || len(a.PValue) != len(b.PValue) {
		return false
	}
	for i := range a.Dropped {
		if a.Dropped[i] != b.Dropped[i] {
			return false
		}
	}
	for f, v := range a.TimePerUnit {
		if w, ok := b.TimePerUnit[f]; !ok || !sameBits(v, w) {
			return false
		}
	}
	for f, v := range a.PValue {
		if w, ok := b.PValue[f]; !ok || !sameBits(v, w) {
			return false
		}
	}
	return true
}

// FuzzClusterMoments: any row stream the script language can spell
// keeps the sparse fold bitwise equal to the dense one. The seed corpus
// is testdata/fuzz/FuzzClusterMoments.
func FuzzClusterMoments(f *testing.F) {
	f.Fuzz(runMomentsScript)
}

// TestClusterMomentsMatchDense runs randomized scripts over the script
// alphabet — the plain-`go test` breadth behind the fuzz target.
func TestClusterMomentsMatchDense(t *testing.T) {
	streams := 200
	if testing.Short() {
		streams = 40
	}
	const alphabet = "iiiiiiifraAxe0123456789abcdef"
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < streams; i++ {
		script := make([]byte, 10+rng.Intn(120))
		for j := range script {
			script[j] = alphabet[rng.Intn(len(alphabet))]
		}
		runMomentsScript(t, script)
	}
}

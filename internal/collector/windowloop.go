package collector

import (
	"slices"
	"sync"

	"vapro/internal/detect"
	"vapro/internal/interpose"
	"vapro/internal/sim"
	"vapro/internal/trace"
)

// normalized fills the windowing defaults; ranks is the wrapped plane's
// provisioned rank count.
func (opt MonitorOptions) normalized(ranks int) MonitorOptions {
	if opt.Ranks <= 0 {
		opt.Ranks = ranks
	}
	if opt.Period <= 0 {
		opt.Period = 15 * sim.Second
	}
	if opt.Overlap <= 0 || opt.Overlap >= opt.Period {
		opt.Overlap = opt.Period / 2
	}
	if opt.MaxStage <= 0 {
		opt.MaxStage = 3
	}
	return opt
}

// windowLoop is the online loop Monitor and ShardedMonitor share: track
// the watermark, close every window all ranks have passed, filter the
// window's regions into an event and escalate the arming stage. The two
// monitors differ only in who runs a window (run) — one pool's plane,
// or the tier's fan-out and spatial merge.
type windowLoop struct {
	opt   MonitorOptions
	armed *interpose.Armed
	// run analyzes one closed window over whatever holds the resident
	// fragments. Called with mu held.
	run func(start, end int64) *detect.Result

	mu        sync.Mutex
	marks     watermark
	nextStart sim.Time
	events    []Event
	stage     int
}

func newWindowLoop(opt MonitorOptions, armed *interpose.Armed, run func(start, end int64) *detect.Result) windowLoop {
	return windowLoop{opt: opt, armed: armed, run: run, marks: newWatermark(opt.Ranks), stage: 1}
}

// observe advances rank's watermark by one delivered batch and analyzes
// every window whose end the minimum across ranks has passed.
func (l *windowLoop) observe(rank int, frags []trace.Fragment) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.marks.observe(rank, frags)
	for l.marks.low() >= l.nextStart.Add(l.opt.Period) {
		l.analyzeNextLocked()
	}
}

// analyzeNextLocked runs the window at the cursor, reports its regions
// and moves the cursor one stride on.
func (l *windowLoop) analyzeNextLocked() {
	start, end := l.nextStart, l.nextStart.Add(l.opt.Period)
	l.nextStart = start.Add(l.opt.Period - l.opt.Overlap)
	res := l.run(int64(start), int64(end))
	var regions []detect.Region
	for _, reg := range res.Regions {
		if l.classOK(reg.Class) && sim.Duration(reg.LossNS) >= l.opt.MinRegionLoss {
			regions = append(regions, reg)
		}
	}
	if len(regions) == 0 {
		return
	}
	// Variance in this window: escalate one diagnosis stage by arming
	// the next counter groups, so the following windows carry the data
	// the finer factors need (§4.3's one-period-per-stage trade-off).
	if l.stage < l.opt.MaxStage {
		l.stage++
		armed := l.armed.Get()
		switch l.stage {
		case 2:
			armed |= sim.GroupBackend
		default:
			armed |= sim.GroupMemory | sim.GroupExtra
		}
		l.armed.Set(armed)
	}
	l.events = append(l.events, Event{
		WindowStart: start,
		WindowEnd:   end,
		Regions:     regions,
		ArmedAfter:  l.armed.Get(),
		Stage:       l.stage,
	})
}

func (l *windowLoop) classOK(c detect.Class) bool {
	return len(l.opt.Classes) == 0 || slices.Contains(l.opt.Classes, c)
}

// Flush analyzes any remaining partial window at the end of the run.
func (l *windowLoop) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.nextStart < l.marks.high() {
		l.analyzeNextLocked()
	}
}

// Drain returns the events recorded so far and clears the queue.
func (l *windowLoop) Drain() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// Stage returns the current progressive stage (1 until variance is
// first detected).
func (l *windowLoop) Stage() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stage
}

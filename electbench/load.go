package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// drainGrace is how long a timed stretch waits, after its window, for the
// elections still in flight; those unfinished by then count as failed.
const drainGrace = 30 * time.Second

// phase is what one stretch of load produced.
type phase struct {
	attempted int // elections started
	completed int // finished with exactly one winner and every participant decided
	failed    int // attempted − completed: errors, wrong outcomes, unfinished
	wrong     int // finished without a winner or with an undecided participant

	latMs  []float64     // completed elections' latencies, ms
	msgs   int64         // over completed elections
	bytes  int64         //
	rounds int64         // sum of each completed election's highest round
	span   time.Duration // window start to last completion
	late   time.Duration // longest gap between a worker's elections

	use0, use1 usage // process counters around the stretch
	rt0, rt1   runtimeSnap
}

// recorder collects concurrent elections' outcomes into a phase.
type recorder struct {
	mu    sync.Mutex
	p     phase
	start time.Time
	last  time.Time
	fatal error
}

func (r *recorder) add(o outcome, lat time.Duration, end time.Time, late time.Duration) {
	ok, err := o.check()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && r.fatal == nil {
		r.fatal = err
	}
	if ok {
		r.p.completed++
		r.p.latMs = append(r.p.latMs, float64(lat)/float64(time.Millisecond))
		r.p.msgs += o.msgs
		r.p.bytes += o.bytes
		r.p.rounds += int64(o.rounds)
	} else if o.err == nil && err == nil {
		r.p.wrong++
	}
	if end.After(r.last) {
		r.last = end
	}
	if late > r.p.late {
		r.p.late = late
	}
}

func (r *recorder) aborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal != nil
}

// finish closes the books once the load loops are done or given up on.
func (r *recorder) finish(attempted int, window time.Duration) (phase, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.p
	p.attempted = attempted
	p.failed = attempted - p.completed
	p.span = r.last.Sub(r.start)
	if p.completed == 0 {
		p.span = window
	}
	return p, r.fatal
}

// load is one stretch of elections on a substrate.
type load struct {
	sub     substrate
	tr      *tracer
	seed    int64
	idxBase uint64 // election indices (and so seeds) start here
}

// closedLoop runs inFlight workers, each starting its next election as
// soon as the previous one returns, until window has passed; the
// elections in flight at the end finish and count. A worker's lateness is
// the gap between one election returning and the next one starting.
func (l load) closedLoop(inFlight int, window time.Duration) (phase, error) {
	rec := &recorder{start: time.Now()}
	deadline := rec.start.Add(window)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := rec.start
			for {
				begin := time.Now()
				if !begin.Before(deadline) || rec.aborted() {
					return
				}
				idx := next.Add(1) - 1
				o := l.sub.elect(electionSeed(l.seed, l.idxBase+idx), l.tr)
				end := time.Now()
				rec.add(o, end.Sub(begin), end, begin.Sub(prev))
				prev = end
			}
		}()
	}
	waitTimeout(&wg, window+drainGrace)
	return rec.finish(int(next.Load()), window)
}

// runCount runs exactly count elections with inFlight workers — the
// untimed warm-up.
func (l load) runCount(count, inFlight int) (phase, error) {
	rec := &recorder{start: time.Now()}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := next.Add(1) - 1
				if idx >= int64(count) || rec.aborted() {
					return
				}
				begin := time.Now()
				o := l.sub.elect(electionSeed(l.seed, l.idxBase+uint64(idx)), l.tr)
				rec.add(o, time.Since(begin), time.Now(), 0)
			}
		}()
	}
	if !waitTimeout(&wg, drainGrace) {
		return rec.finish(count, 0)
	}
	return rec.finish(min(int(next.Load()), count), 0)
}

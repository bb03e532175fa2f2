package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/transport"
)

// workload is one load the benchmark drives: a substrate, a system size,
// a fault set and a load shape. Every load is a closed loop: each of
// inFlight workers starts its next election as soon as the previous one
// returns, so a slower host gets less load instead of a growing queue.
type workload struct {
	name      string
	substrate string // "chan", transport.SpecTCP or transport.SpecUDP
	n, k      int    // servers and participants per election
	crash     int    // servers n−crash … n−1 crashed after set-up
	inFlight  int    // elections in flight (also the warm-up's)
	warmup    int    // elections run before timing, to fill pools and caches
	shape     string // one-line load description for the report
}

// workloads are the benchmark's loads. BENCHMARK.json records why each
// exists; the names must match it.
var workloads = []workload{
	{
		name: "chan-n32-closed4", substrate: "chan", n: 32, k: 32,
		inFlight: 4, warmup: 40,
		shape: "live.Elect over a live.SystemPool, n=k=32, closed loop, 4 elections in flight",
	},
	{
		name: "tcp-n16-closed4", substrate: transport.SpecTCP, n: 16, k: 16,
		inFlight: 4, warmup: 40,
		shape: "electd over loopback TCP, n=k=16, closed loop, 4 elections in flight",
	},
	{
		name: "udp-n16-crash7-closed8", substrate: transport.SpecUDP, n: 16, k: 16,
		crash: 7, inFlight: 8, warmup: 96,
		shape: "electd over loopback UDP, n=k=16, servers 9-15 crashed after set-up, closed loop, 8 elections in flight",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// outcome is one election's result as the benchmark checks it.
type outcome struct {
	err       error // the election did not complete (shed, timed out, panicked)
	winners   int   // participants that returned core.Win
	undecided int   // participants that returned without deciding
	msgs      int64 // point-to-point messages, retransmits included
	bytes     int64 // wire-codec payload bytes
	rounds    int   // highest round any participant reached
}

// errSafety marks an election with more than one winner: the run stops.
var errSafety = errors.New("safety violation")

// check classifies an outcome: ok elections count as completed; failed
// ones count against the attempts; a safety violation aborts the run.
func (o outcome) check() (ok bool, err error) {
	switch {
	case o.winners > 1:
		return false, fmt.Errorf("%w: %d winners in one election", errSafety, o.winners)
	case o.err != nil, o.winners == 0, o.undecided > 0:
		return false, nil
	}
	return true, nil
}

// substrate runs elections for one workload. elect must be safe for
// concurrent use; with a non-nil tracer it routes every participant's
// rt.Comm through the tracer.
type substrate interface {
	elect(seed int64, tr *tracer) outcome
	close()
}

// electTimeout bounds one election; hitting it is a liveness failure.
const electTimeout = 20 * time.Second

// setup builds a workload's substrate. With a tracer, the network
// substrates are built on the tracer's wrapped transport.
func setup(w workload, tr *tracer) (substrate, error) {
	if w.substrate == "chan" {
		return &chanSub{pool: live.NewSystemPool(w.n, true), n: w.n, k: w.k}, nil
	}
	spec := transport.Spec{Name: w.substrate}
	var cl *electd.Cluster
	var err error
	if tr == nil {
		cl, err = electd.NewClusterSpec(spec, w.n, electd.ClusterOptions{})
	} else {
		// NewClusterWith skips the spec merge NewClusterSpec does, so the
		// traced cluster gets the pool options it would have derived:
		// batching and sharding as the spec says, and the default resend
		// period on an unreliable substrate.
		var nw transport.Network
		if nw, err = spec.Network(); err != nil {
			return nil, err
		}
		opts := electd.PoolOptions{NoCoalesce: spec.NoBatch, ConnShards: spec.Shards}
		if !spec.Reliable() {
			opts.Retransmit = electd.DefaultDatagramRetransmit
		}
		cl, err = electd.NewClusterWith(tr.network(nw), w.n, electd.ClusterOptions{Pool: opts})
	}
	if err != nil {
		return nil, fmt.Errorf("start %s cluster: %w", w.substrate, err)
	}
	for id := w.n - w.crash; id < w.n; id++ {
		cl.Crash(rt.ProcID(id))
	}
	return &netSub{cl: cl, k: w.k}, nil
}

// chanSub runs elections on the in-process chan substrate.
type chanSub struct {
	pool *live.SystemPool
	n, k int
}

func (s *chanSub) elect(seed int64, tr *tracer) outcome {
	if tr != nil {
		return s.electTraced(seed, tr)
	}
	res, err := live.Elect(live.Config{N: s.n, K: s.k, Seed: seed, Pool: s.pool, Timeout: electTimeout})
	o := outcome{msgs: res.Messages, bytes: res.Bytes, rounds: res.Rounds}
	for _, d := range res.Decisions {
		if d == core.Win {
			o.winners++
		}
	}
	if err != nil {
		o.err = err
		// live.Elect stops at the second winner and reports it only in
		// the error; keep it a safety violation, not a failure.
		if strings.Contains(err.Error(), "both won") {
			o.winners = 2
		}
	}
	return o
}

// electTraced is live.Elect's chan path built from the same public parts —
// a pooled system, one live.Comm per participant — with each comm wrapped
// by the tracer.
func (s *chanSub) electTraced(seed int64, tr *tracer) outcome {
	sys := s.pool.Get(seed, nil)
	decisions := make([]core.Decision, s.k)
	states := make([]*core.State, s.k)
	var wg sync.WaitGroup
	for i := 0; i < s.k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := sys.Proc(rt.ProcID(i))
			states[i] = core.NewState(p, string(live.AlgoPoisonPill))
			tc := &tracedComm{inner: live.NewComm(p)}
			start := time.Now()
			decisions[i] = core.LeaderElectWithState(tc, "elect", states[i])
			tr.finish(tc, time.Since(start))
		}(i)
	}
	if !waitTimeout(&wg, electTimeout) {
		// The system's goroutines are still live, so it never returns to
		// the pool.
		return outcome{err: fmt.Errorf("traced chan election timed out after %v", electTimeout)}
	}
	s.pool.Put(sys)
	return tally(decisions, states, nil)
}

func (s *chanSub) close() { s.pool.Close() }

// netSub runs elections on an in-process electd cluster, each participant
// on its own electd.Client exactly as `electd -elect` drives them.
type netSub struct {
	cl *electd.Cluster
	k  int
}

func (s *netSub) elect(seed int64, tr *tracer) outcome {
	id := s.cl.NextElectionID()
	decisions := make([]core.Decision, s.k)
	states := make([]*core.State, s.k)
	clients := make([]*electd.Client, s.k)
	errs := make([]error, s.k)
	var wg sync.WaitGroup
	for i := 0; i < s.k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("participant %d panicked: %v", i, r)
				}
			}()
			p := electd.NewParticipant(rt.ProcID(i), s.k, seed+int64(i))
			clients[i] = s.cl.NewComm(p, id, nil)
			states[i] = core.NewState(p, "leaderelect")
			var c rt.Comm = clients[i]
			var tc *tracedComm
			if tr != nil {
				tc = &tracedComm{inner: clients[i]}
				c = tc
			}
			start := time.Now()
			errs[i] = electd.CatchBusy(func() {
				decisions[i] = core.LeaderElectWithState(c, "elect", states[i])
			})
			if tc != nil {
				tr.finish(tc, time.Since(start))
			}
		}(i)
	}
	if !waitTimeout(&wg, electTimeout) {
		// The stuck participants keep their goroutines; the run reports the
		// failure and exits, so nothing reuses this election's state.
		return outcome{err: fmt.Errorf("election %d timed out after %v", id, electTimeout)}
	}
	s.cl.RemoveElection(id)
	return tally(decisions, states, clients, errs...)
}

func (s *netSub) close() { s.cl.Close() } //nolint:errcheck // teardown after the last election

// tally checks and sums one finished election: winners, undecided
// participants, the highest round, and (for electd clients) traffic.
func tally(decisions []core.Decision, states []*core.State, clients []*electd.Client, errs ...error) outcome {
	var o outcome
	for i, d := range decisions {
		if len(errs) > i && errs[i] != nil {
			if o.err == nil {
				o.err = errs[i]
			}
			continue
		}
		switch d {
		case core.Win:
			o.winners++
		case core.Lose:
		default:
			o.undecided++
		}
		if st := states[i]; st != nil && st.Round > o.rounds {
			o.rounds = st.Round
		}
	}
	for _, c := range clients {
		if c != nil {
			o.msgs += c.Messages()
			o.bytes += c.Bytes()
		}
	}
	return o
}

// waitTimeout waits for wg up to d; false if it timed out.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

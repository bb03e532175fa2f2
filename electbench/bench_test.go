package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n         int
		value, q  float64
		supported bool
	}{
		{n: 1000, value: 990, q: 0.99, supported: true},  // 10 samples above 990
		{n: 2000, value: 1980, q: 0.99, supported: true}, // 20 above
		{n: 500, value: 490, q: 0.98, supported: true},   // p99 would leave 5 above
		{n: 11, value: 1, q: 1.0 / 11, supported: true},
		{n: 10, value: 10, q: 1, supported: false},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), 0.99)
		if got.Value != c.value || got.Q != c.q || got.N != c.n || got.Supported != c.supported {
			t.Errorf("n=%d: got %+v, want value %v q %v supported %v", c.n, got, c.value, c.q, c.supported)
		}
		if got.Supported {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
			}
		}
	}
}

func TestBlockedTailIgnoresOneStalledBlock(t *testing.T) {
	var xs []float64
	for b := 0; b < tailBlocks; b++ {
		for i := 1; i <= 1000; i++ {
			x := float64(i)
			if b == 2 {
				x += 1000 // a stall slows every election of the middle block
			}
			xs = append(xs, x)
		}
	}
	if all := tailPercentile(sortedCopy(xs), 0.99); all.Value < 1000 {
		t.Fatalf("p99 of every sample is %v; the stalled block should set it", all.Value)
	}
	got := blockedTail(xs, 0.99, tailBlocks)
	if got.Value != 990 || got.Q != 0.99 || got.N != 1000 || !got.Supported {
		t.Errorf("got %+v, want the p99 of an unstalled block: 990 of 1000 samples", got)
	}
	if few := blockedTail([]float64{3, 1, 2}, 0.99, tailBlocks); few.Value != 3 || few.N != 3 {
		t.Errorf("three samples: got %+v, want the maximum of all three", few)
	}
}

// fixedSub is a substrate whose elections take a fixed time and always
// elect one winner.
type fixedSub struct{ d time.Duration }

func (s fixedSub) elect(int64, *tracer) outcome {
	time.Sleep(s.d)
	return outcome{winners: 1}
}
func (fixedSub) close() {}

func TestClosedLoopCountsEveryElectionStarted(t *testing.T) {
	const d = 5 * time.Millisecond
	ph, err := load{sub: fixedSub{d: d}}.closedLoop(2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The elections still in flight when the window closes finish and
	// count, so nothing started is lost.
	if ph.attempted < 10 || ph.completed != ph.attempted || ph.failed != 0 {
		t.Fatalf("attempted %d completed %d failed %d, want ≥10 all completed", ph.attempted, ph.completed, ph.failed)
	}
	if len(ph.latMs) != ph.completed {
		t.Fatalf("%d latencies for %d elections", len(ph.latMs), ph.completed)
	}
	for _, ms := range ph.latMs {
		if ms < float64(d)/float64(time.Millisecond) {
			t.Fatalf("latency %vms, shorter than the %v an election takes", ms, d)
		}
	}
}

func TestOutcomeCheck(t *testing.T) {
	if ok, err := (outcome{winners: 1}).check(); !ok || err != nil {
		t.Errorf("one winner: ok=%v err=%v", ok, err)
	}
	if _, err := (outcome{winners: 2}).check(); !errors.Is(err, errSafety) {
		t.Errorf("two winners: err=%v, want a safety violation", err)
	}
	for _, o := range []outcome{{}, {winners: 1, undecided: 1}, {winners: 1, err: errors.New("shed")}} {
		if ok, err := o.check(); ok || err != nil {
			t.Errorf("%+v: ok=%v err=%v, want a failure", o, ok, err)
		}
	}
}

func TestTracedClusterKeepsFilterAndRecovery(t *testing.T) {
	tr := &tracer{}
	s, err := setup(workload{substrate: transport.SpecTCP, n: 5, k: 3}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ns := s.(*netSub)
	for i := int64(0); i < 3; i++ {
		if ok, err := ns.elect(i, tr).check(); !ok || err != nil {
			t.Fatalf("election %d: ok=%v err=%v", i, ok, err)
		}
	}
	if tr.filtered.Load() == 0 {
		t.Error("no reply frame reached the pool's FrameFilter through the traced Conn")
	}
	if tr.srvProp.n.Load() == 0 || tr.srvColl.n.Load() == 0 || tr.reply.n.Load() == 0 || tr.send.n.Load() == 0 {
		t.Error("a Handler or Conn wrapper saw no traffic")
	}
	ns.cl.Crash(4)
	if err := ns.cl.Restart(4); err != nil {
		t.Fatalf("restart through the traced listener: %v", err)
	}
	if ok, err := ns.elect(9, tr).check(); !ok || err != nil {
		t.Fatalf("election after restart: ok=%v err=%v", ok, err)
	}
	if tr.overrun != 0 {
		t.Errorf("%d participants spent longer in rt.Comm than they ran", tr.overrun)
	}
}

// benchmarkDef is the part of BENCHMARK.json the smoke run checks.
type benchmarkDef struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, dw := range def.Workloads {
		if _, ok := lookupWorkload(dw.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", dw.Name)
		}
		for _, trace := range []string{"0", "1"} {
			w, _ := lookupWorkload(dw.Name)
			cfg := config{seed: 3, window: 600 * time.Millisecond, setupReps: 1, traced: trace == "1"}
			var out, errOut bytes.Buffer
			code := runOne(w, cfg, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", dw.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", dw.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", dw.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := def.EndToEnd
			if trace == "1" {
				want = def.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", dw.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", dw.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s trace=%s: %s not printed by name", dw.Name, trace, m.Name)
				}
			}
			if trace == "1" {
				checkIdleLayers(t, dw.Name, res)
			}
		}
	}
}

// checkIdleLayers holds each workload to the layers it must bypass.
func checkIdleLayers(t *testing.T, name string, res result) {
	t.Helper()
	val := func(m string) float64 { return res.Metrics[m].Value }
	switch name {
	case "chan-n32-closed4":
		for m := range res.Metrics {
			if (strings.HasPrefix(m, "wire.") || strings.HasPrefix(m, "transport.") || strings.HasPrefix(m, "electd.")) && val(m) != 0 {
				t.Errorf("%s: %s = %v, want 0 on the chan substrate", name, m, val(m))
			}
		}
	case "tcp-n16-closed4":
		if v := val("electd.pool.retransmit_share"); v != 0 {
			t.Errorf("%s: retransmit_share = %v, want 0 over TCP", name, v)
		}
		if v := val("electd.pool.straggler_drop_share"); v < 0.1 {
			t.Errorf("%s: straggler_drop_share = %v, want clearly above 0", name, v)
		}
	case "udp-n16-crash7-closed8":
		if v := val("electd.pool.retransmit_share"); v <= 0 {
			t.Errorf("%s: retransmit_share = %v, want resends to the crashed servers", name, v)
		}
		// Every quorum needs all 9 live servers, so few replies come late.
		if v := val("electd.pool.straggler_drop_share"); v > 0.1 {
			t.Errorf("%s: straggler_drop_share = %v, want about 0", name, v)
		}
	}
	for _, m := range []string{"core.comm_calls_per_election", "comm.wait_share", "bench.trace_overhead_p50"} {
		if val(m) <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, m, val(m))
		}
	}
}

package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tracer measures each layer from outside the program, at its public
// interface: it wraps every participant's rt.Comm (core above, quorum call
// below), and the transport.Network an electd cluster is built on — the
// listen-side Handler (electd.Server), the dial-side Handler and
// FrameFilter (electd.Pool's reply router and straggler filter) and the
// dialed Conns (transport sends). Nothing inside the program is
// instrumented. Counters are reset after warm-up.
type tracer struct {
	mu      sync.Mutex
	propNs  []float64 // every Propagate call's duration
	collNs  []float64 // every Collect call's duration
	commNs  int64     // participants' time inside rt.Comm calls
	wallNs  int64     // participants' wall time
	calls   int64     // rt.Comm calls
	overrun int64     // participants whose comm time exceeded their wall time

	srvProp, srvColl  timer // listen-side Handler, by request kind
	reply             timer // dial-side Handler (the pool's reply router)
	send              timer // dialed Conn.Send / SendEncoded
	filtered, vetoed  atomic.Int64
	requests, resends atomic.Int64 // request sends; repeats per call and server

	samples sampler // the message mix both Handlers saw, for the codec timing
}

// timer accumulates a count and a total duration.
type timer struct{ n, ns atomic.Int64 }

func (t *timer) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

func (t *timer) reset() {
	t.n.Store(0)
	t.ns.Store(0)
}

// meanUs is the mean duration in microseconds (0 when nothing ran).
func (t *timer) meanUs() float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n) / 1e3
}

// reset zeroes every counter; call it with no election in flight.
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.propNs, tr.collNs = tr.propNs[:0], tr.collNs[:0]
	tr.commNs, tr.wallNs, tr.calls, tr.overrun = 0, 0, 0, 0
	tr.mu.Unlock()
	for _, t := range []*timer{&tr.srvProp, &tr.srvColl, &tr.reply, &tr.send} {
		t.reset()
	}
	for _, c := range []*atomic.Int64{&tr.filtered, &tr.vetoed, &tr.requests, &tr.resends} {
		c.Store(0)
	}
	tr.samples.reset()
}

// tracedComm times one participant's rt.Comm calls. Like the comm it
// wraps, it is used from the participant's goroutine only.
type tracedComm struct {
	inner  rt.Comm
	commNs int64
	calls  int64
	prop   []float64
	coll   []float64
}

func (c *tracedComm) Proc() rt.Procer { return c.inner.Proc() }
func (c *tracedComm) QuorumSize() int { return c.inner.QuorumSize() }

func (c *tracedComm) Propagate(reg string, val rt.Value) {
	t0 := time.Now()
	c.inner.Propagate(reg, val)
	d := int64(time.Since(t0))
	c.commNs += d
	c.calls++
	c.prop = append(c.prop, float64(d))
}

func (c *tracedComm) Collect(reg string) []rt.View {
	t0 := time.Now()
	views := c.inner.Collect(reg)
	d := int64(time.Since(t0))
	c.commNs += d
	c.calls++
	c.coll = append(c.coll, float64(d))
	return views
}

// finish books a participant that returned after wall: its self time is
// wall minus the time it spent inside rt.Comm calls.
func (tr *tracer) finish(c *tracedComm, wall time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.propNs = append(tr.propNs, c.prop...)
	tr.collNs = append(tr.collNs, c.coll...)
	tr.commNs += c.commNs
	tr.wallNs += int64(wall)
	tr.calls += c.calls
	if c.commNs > int64(wall) {
		tr.overrun++
	}
}

// network wraps nw so that everything an electd cluster builds on it is
// measured.
func (tr *tracer) network(nw transport.Network) transport.Network {
	return &tracedNetwork{inner: nw, tr: tr}
}

type tracedNetwork struct {
	inner transport.Network
	tr    *tracer
}

// Listen wraps the server's Handler and returns a Listener that still
// recovers after a crash.
func (n *tracedNetwork) Listen(h transport.Handler) (transport.Listener, error) {
	tr := n.tr
	ln, err := n.inner.Listen(func(c transport.Conn, m *wire.Msg) {
		// The server recycles m; read all of it before handing it on.
		kind := m.Kind
		tr.samples.offer(m)
		t0 := time.Now()
		h(c, m)
		d := time.Since(t0)
		switch kind {
		case wire.KindPropagate:
			tr.srvProp.add(d)
		case wire.KindCollect:
			tr.srvColl.add(d)
		}
	})
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln}, nil
}

// Dial wraps the pool's reply Handler and returns a Conn that times sends,
// counts repeated requests and still accepts the pool's FrameFilter.
func (n *tracedNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	tr := n.tr
	c, err := n.inner.Dial(addr, func(c transport.Conn, m *wire.Msg) {
		tr.samples.offer(m)
		t0 := time.Now()
		h(c, m)
		tr.reply.add(time.Since(t0))
	})
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, tr: tr, sent: make([]atomic.Uint64, callRing)}, nil
}

// tracedListener forwards Addr, Crash and Close, and Recover — without it
// Cluster.Restart would find no transport.Recoverer.
type tracedListener struct{ transport.Listener }

func (l *tracedListener) Recover() error {
	rec, ok := l.Listener.(transport.Recoverer)
	if !ok {
		return fmt.Errorf("listener %T cannot recover", l.Listener)
	}
	return rec.Recover()
}

// callRing is how many recent call IDs a traced connection remembers to
// tell a call's first send from its retransmits. Calls are numbered from
// one counter per pool; a call is resent for at most a few hundred
// milliseconds, far fewer IDs than this at the loads benchmarked.
const callRing = 1 << 16

// tracedConn is one dialed connection: one server, seen from the pool.
type tracedConn struct {
	inner transport.Conn
	tr    *tracer
	sent  []atomic.Uint64 // [callRing]: last call ID sent in each slot
}

func (c *tracedConn) Send(m *wire.Msg) error {
	c.noteRequest(m.Kind, m.Call)
	t0 := time.Now()
	err := c.inner.Send(m)
	c.tr.send.add(time.Since(t0))
	return err
}

// SendEncoded reads the frame's calls before handing it on: the transport
// owns (and recycles) the bytes once SendEncoded is called.
func (c *tracedConn) SendEncoded(frame []byte) error {
	if size, n := binary.Uvarint(frame); n > 0 && size == uint64(len(frame)-n) {
		wire.ForEachFrame(frame[n:], func(body []byte) error { //nolint:errcheck // malformed frames count nothing
			if kind, call, ok := peekRequest(body); ok {
				c.noteRequest(kind, call)
			}
			return nil
		})
	}
	t0 := time.Now()
	err := c.inner.SendEncoded(frame)
	c.tr.send.add(time.Since(t0))
	return err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// SetFilter forwards the pool's straggler filter to the real connection,
// wrapped only to count what it vetoes.
func (c *tracedConn) SetFilter(f transport.FrameFilter) {
	fc, ok := c.inner.(transport.FilteredConn)
	if !ok {
		return
	}
	if f == nil {
		fc.SetFilter(nil)
		return
	}
	tr := c.tr
	fc.SetFilter(func(body []byte) bool {
		tr.filtered.Add(1)
		keep := f(body)
		if !keep {
			tr.vetoed.Add(1)
		}
		return keep
	})
}

// noteRequest counts one request send and whether this server has seen
// the same call before.
func (c *tracedConn) noteRequest(kind wire.Kind, call uint64) {
	if kind != wire.KindPropagate && kind != wire.KindCollect {
		return
	}
	c.tr.requests.Add(1)
	if c.sent[call&(callRing-1)].Swap(call) == call {
		c.tr.resends.Add(1)
	}
}

// peekRequest reads a message body's kind and call ID: a kind byte, then
// the election and call as uvarints.
func peekRequest(body []byte) (wire.Kind, uint64, bool) {
	if len(body) < 1 {
		return 0, 0, false
	}
	rest := body[1:]
	_, n := binary.Uvarint(rest) // election
	if n <= 0 {
		return 0, 0, false
	}
	call, m := binary.Uvarint(rest[n:])
	if m <= 0 {
		return 0, 0, false
	}
	return wire.Kind(body[0]), call, true
}

// Sampling of the message mix for the codec timing: every sampleEvery-th
// message either Handler sees, up to sampleCap copies.
const (
	sampleEvery = 16
	sampleCap   = 4096
)

type sampler struct {
	seen atomic.Int64
	mu   sync.Mutex
	msgs []*wire.Msg
}

// offer copies m if it is due; the copy owns its entries, since the
// program recycles m's.
func (s *sampler) offer(m *wire.Msg) {
	if s.seen.Add(1)%sampleEvery != 0 {
		return
	}
	cp := &wire.Msg{Kind: m.Kind, Election: m.Election, Call: m.Call, From: m.From, Reg: m.Reg,
		Entries: slices.Clone(m.Entries)}
	s.mu.Lock()
	if len(s.msgs) < sampleCap {
		s.msgs = append(s.msgs, cp)
	}
	s.mu.Unlock()
}

func (s *sampler) reset() {
	s.mu.Lock()
	s.msgs = nil
	s.mu.Unlock()
	s.seen.Store(0)
}

func (s *sampler) taken() []*wire.Msg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs
}

// codecOps is roughly how many encodes (and decodes) the codec timing runs.
const codecOps = 200_000

// codecStats is the wire codec's cost on a message mix.
type codecStats struct {
	encodeNs, decodeNs, decodeAllocs, bytes float64 // per message
}

// codecTiming times wire.Append and wire.Decode over msgs, round-robin,
// on the calling goroutine. Decoded messages are recycled as the server
// does, so allocations are the steady-state ones. Run it with the program
// idle: the allocation count is process-wide.
func codecTiming(msgs []*wire.Msg) (codecStats, error) {
	if len(msgs) == 0 {
		return codecStats{}, nil
	}
	bodies := make([][]byte, len(msgs))
	var total int
	for i, m := range msgs {
		frame, err := wire.Append(nil, m)
		if err != nil {
			return codecStats{}, fmt.Errorf("encode sampled %v message: %w", m.Kind, err)
		}
		_, n := binary.Uvarint(frame)
		bodies[i] = frame[n:]
		total += len(bodies[i])
	}
	reps := max(1, codecOps/len(msgs))
	ops := float64(reps * len(msgs))

	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			buf, _ = wire.Append(buf[:0], m) // every sample encoded above
		}
	}
	enc := time.Since(t0)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range bodies {
			m, err := wire.Decode(b)
			if err != nil {
				return codecStats{}, fmt.Errorf("decode sampled message: %w", err)
			}
			wire.RecycleMsg(m)
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	return codecStats{
		encodeNs:     float64(enc) / ops,
		decodeNs:     float64(dec) / ops,
		decodeAllocs: float64(ms1.Mallocs-ms0.Mallocs) / ops,
		bytes:        float64(total) / float64(len(msgs)),
	}, nil
}

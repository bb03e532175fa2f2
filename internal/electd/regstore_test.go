package electd

import (
	"bufio"
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rt"
	"repro/internal/wire"
)

// replyConn is a transport.Conn stub that decodes and keeps every reply
// frame Server.Handle sends.
type replyConn struct {
	discardConn
	replies []*wire.Msg
}

func (c *replyConn) SendEncoded(frame []byte) error {
	m, err := wire.ReadMsg(bufio.NewReader(bytes.NewReader(frame)))
	wire.PutBuf(frame)
	if err != nil {
		return err
	}
	c.replies = append(c.replies, m)
	return nil
}

// last returns the most recent reply.
func (c *replyConn) last(t *testing.T) *wire.Msg {
	t.Helper()
	if len(c.replies) == 0 {
		t.Fatal("no reply")
	}
	return c.replies[len(c.replies)-1]
}

// TestDenseDirectoryServesOwnerOrder: owners merged in scrambled order by
// concurrent writers — growing the dense directory several times over —
// all land, and the snapshot lists them in owner order without a sort.
func TestDenseDirectoryServesOwnerOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const owners = 300
	st := newStore()
	perm := rand.New(rand.NewSource(1)).Perm(owners)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < owners; i += 4 {
				o := rt.ProcID(perm[i])
				st.merge(rt.Entry{Reg: "r", Owner: o, Seq: 1, Val: int(o)})
			}
		}(w)
	}
	wg.Wait()
	if _, hit := st.snapshotTail("r"); hit {
		t.Fatal("first collect after merges served a stale snapshot")
	}
	snap := st.array("r").snap.Load()
	if len(snap.entries) != owners {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.entries), owners)
	}
	for i, e := range snap.entries {
		if e.Owner != rt.ProcID(i) || e.Val != i {
			t.Fatalf("entry %d = owner %d val %v; want owner order with every merge present", i, e.Owner, e.Val)
		}
	}
	if n := len(st.array("r").dir()); n < owners || n&(n-1) != 0 {
		t.Fatalf("directory size %d: want a power of two covering %d owners", n, owners)
	}
}

// TestPropagatePastMaxOwnersRefused: a propagate carrying an entry owner
// at or above MaxOwners — up to wire.MaxID — is refused whole with a busy
// reply: it creates no instance, merges none of its entries (not even the
// in-range ones), counts as shed, and allocates nothing sized by the
// owner. Owner MaxOwners-1 is still stored.
func TestPropagatePastMaxOwnersRefused(t *testing.T) {
	srv := NewServer(0)
	conn := &replyConn{}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handle(conn, propagateFrame(1, "r", wire.MaxID, 1, 7))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing owner MaxID allocated %d bytes", got)
	}
	if k := conn.last(t).Kind; k != wire.KindBusy {
		t.Fatalf("owner MaxID answered with %v, want busy", k)
	}
	if srv.Elections() != 0 || srv.Shed() != 1 {
		t.Fatalf("refused propagate left %d instances, shed %d; want 0 and 1", srv.Elections(), srv.Shed())
	}

	// An existing instance refuses too, and keeps its state intact.
	srv.Handle(conn, propagateFrame(2, "r", 1, 1, 10))
	if k := conn.last(t).Kind; k != wire.KindAck {
		t.Fatalf("in-range propagate answered with %v, want ack", k)
	}
	mixed := &wire.Msg{Kind: wire.KindPropagate, Election: 2, Call: 5, From: 2, Reg: "r",
		Entries: []rt.Entry{{Reg: "r", Owner: 2, Seq: 1, Val: 20}, {Reg: "r", Owner: MaxOwners, Seq: 1, Val: 30}}}
	srv.Handle(conn, mixed)
	if k := conn.last(t).Kind; k != wire.KindBusy {
		t.Fatalf("owner MaxOwners answered with %v, want busy", k)
	}
	srv.Handle(conn, propagateFrame(2, "r", MaxOwners-1, 1, 40))
	if k := conn.last(t).Kind; k != wire.KindAck {
		t.Fatalf("owner MaxOwners-1 answered with %v, want ack", k)
	}
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: 2, Call: 6, From: 1, Reg: "r"})
	view := conn.last(t)
	if view.Kind != wire.KindView || len(view.Entries) != 2 ||
		view.Entries[0].Owner != 1 || view.Entries[1].Owner != MaxOwners-1 {
		t.Fatalf("view after refusal = %+v; want owners 1 and MaxOwners-1 only", view)
	}
	if srv.Shed() != 2 {
		t.Fatalf("shed = %d, want 2", srv.Shed())
	}
}

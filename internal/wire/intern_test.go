package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rt"
)

// TestBufPoolRoundTripZeroAlloc: a steady-state GetBuf → append → PutBuf
// round trip allocates nothing — the pool holds *[]byte, so putting a
// buffer back boxes no slice header.
func TestBufPoolRoundTripZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	PutBuf(GetBuf()) // warm both pools
	allocs := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = append(b, "a frame's worth of bytes"...)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("GetBuf/append/PutBuf allocated %.2f per round trip, want 0", allocs)
	}
}

// TestDecodeNilListPropagateZeroAlloc: decoding a propagate whose entries
// are nil-list statuses, under an already-seen register name, into a
// message recycled with RecycleMsg allocates nothing — the interned name,
// the shared pre-boxed statuses and the recycled entry array cover every
// byte of the result.
func TestDecodeNilListPropagateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const reg = "elect/sift/2/status"
	m := &Msg{Kind: KindPropagate, Election: 9, Call: 4, From: 3, Reg: reg}
	for i, st := range []core.StatKind{core.Commit, core.LowPri, core.HighPri} {
		m.Entries = append(m.Entries, rt.Entry{Reg: reg, Owner: rt.ProcID(i), Seq: 2, Val: core.Status{Stat: st}})
	}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[PrefixSize(m.WireSize()):]
	decodeRecycle := func() {
		d, err := Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		RecycleMsg(d)
	}
	decodeRecycle() // sees the name, leaves an entry arena in the pool
	if allocs := testing.AllocsPerRun(1000, decodeRecycle); allocs != 0 {
		t.Fatalf("Decode of a nil-list propagate allocated %.2f per message, want 0", allocs)
	}
	d, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	defer RecycleMsg(d)
	if !reflect.DeepEqual(normalize(d), normalize(m)) {
		t.Fatalf("decoded %+v, want %+v", d, m)
	}
}

// TestInternDistinctNamesBounded: 10k distinct register names decode to
// themselves and re-encode to the accepted bytes, while the intern table
// keeps its fixed size: at most internSlots names of at most maxInternLen
// bytes stay referenced, however many names went through it.
func TestInternDistinctNamesBounded(t *testing.T) {
	for i := 0; i < 10000; i++ {
		reg := fmt.Sprintf("inst-%d/sift/%d/status", i, i%7)
		if i%100 == 0 {
			reg += string(bytes.Repeat([]byte{'x'}, maxInternLen)) // past the interning bound
		}
		m := &Msg{Kind: KindPropagate, Election: uint64(i), Call: 1, From: 2, Reg: reg,
			Entries: []rt.Entry{{Reg: reg, Owner: 2, Seq: 1, Val: core.Status{Stat: core.Commit}}}}
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[PrefixSize(m.WireSize()):]
		d, err := Decode(body)
		if err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
		if d.Reg != reg || d.Entries[0].Reg != reg {
			t.Fatalf("name %d decoded as %q / %q", i, d.Reg, d.Entries[0].Reg)
		}
		again, err := Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("name %d: decode∘encode is not the identity", i)
		}
		RecycleMsg(d)
	}
	held, bytesHeld := 0, 0
	for i := range internTab {
		if p := internTab[i].Load(); p != nil {
			held++
			bytesHeld += len(*p)
			if len(*p) > maxInternLen {
				t.Fatalf("intern slot %d holds a %d-byte name, over maxInternLen", i, len(*p))
			}
		}
	}
	if held > internSlots || bytesHeld > internSlots*maxInternLen {
		t.Fatalf("intern table holds %d names / %d bytes, bound %d / %d", held, bytesHeld, internSlots, internSlots*maxInternLen)
	}
}

// TestInternSharesRepeatedNames: decoding the same register name twice
// yields one shared string.
func TestInternSharesRepeatedNames(t *testing.T) {
	m := &Msg{Kind: KindCollect, Election: 1, Call: 1, From: 1, Reg: "elect/door"}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[PrefixSize(m.WireSize()):]
	a, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Reg) != unsafe.StringData(b.Reg) {
		t.Fatal("a repeated register name was not interned")
	}
	if intern([]byte("")) != "" {
		t.Fatal("empty name")
	}
}

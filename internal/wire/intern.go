package wire

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rt"
)

// Decode-side sharing: the two kinds of value the hot path decodes over
// and over are handed out as shared immutable instances instead of fresh
// allocations (see docs/WIRE.md, "Decode aliasing").

// Register names come from a tiny set per deployment (<inst>/door,
// <inst>/round, <inst>/sift/r, <inst>/status), yet every frame carries
// one. They are interned through a fixed-size direct-mapped table of
// atomic string pointers: a hit costs a hash and one comparison, a miss
// allocates the string and overwrites the slot (last writer wins). The
// table never grows — internSlots pointers to names of at most
// maxInternLen bytes — so a hostile or unbounded name set only turns hits
// into misses, never into memory.
const (
	internSlots  = 1024
	maxInternLen = 64
)

var internTab [internSlots]atomic.Pointer[string]

// intern returns a string equal to b, shared with earlier decodes of the
// same bytes whenever the table still holds them.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &internTab[h&(internSlots-1)]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// nilListStatus holds one pre-boxed core.Status with a nil list per stat
// byte. PoisonPill's statuses usually carry no ℓ list, and boxing each
// decoded one into an rt.Value was the decoder's largest allocation site;
// the shared boxes are immutable like every decoded value.
var nilListStatus = func() (t [256]rt.Value) {
	for i := range t {
		t[i] = core.Status{Stat: core.StatKind(i)}
	}
	return t
}()

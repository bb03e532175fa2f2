package electd

import (
	"sync/atomic"

	"repro/internal/rt"
	"repro/internal/wire"
)

// Lock-free register state for one election instance, in the style of
// Alistarh–Gelashvili–Vladu's model: the paper's processors communicate
// through atomic registers, and this file makes the reproduction's server
// hot path match — steady-state propagates and collects touch no mutex.
//
// The structure is RCU over immutable values with per-cell CAS beneath:
//
//   - store.regs is an atomically published immutable directory
//     (register name → *regArray). Adding a register — once per register
//     name per instance — copies the directory and CASes the pointer.
//   - regArray.cells is the same one level down: a dense owner-indexed
//     slot directory. Slots are created in geometric blocks, so a
//     directory copy happens once per doubling, not once per owner.
//   - a cellSlot holds an atomic pointer to an immutable cellVal. A merge
//     is a CAS on that pointer guarded by the writer version: higher
//     sequence numbers win, exactly the versioning rule the mutex-guarded
//     store enforced, now enforced by the retry loop instead of the lock.
//   - regArray.snap is the RCU-published snapshot: an immutable bundle of
//     the owner-ordered entries and their cached wire encoding, tagged
//     with the array version it was built at. Collects load it with one
//     atomic read; a winning merge bumps the version, which lazily
//     invalidates the published snapshot (the next collect rebuilds and
//     re-publishes). A published snapshot is never mutated — readers
//     holding one keep a consistent view forever.
//
// Progress: every operation is lock-free (a stalled reader or writer
// cannot block others; CAS retries only when somebody else made
// progress). Snapshot rebuilds can duplicate work under races, which
// costs cycles, never correctness: publication CASes from the observed
// old snapshot, and the version tag makes any stale publication
// self-correcting on the next read.
//
// What stays on the shard mutex is lifecycle, not steady state: instance
// create (admission control needs an exact live count), evict, and
// restart. See Server.Handle.

// store is one election instance's register state on one server. Both
// fields are lock-free: regs is the RCU register directory, last the
// instance's idle clock — the UnixNano of the most recent request that
// touched it — which the sweeper compares against the TTL and the drain
// idle bar.
type store struct {
	regs atomic.Pointer[regDir]
	last atomic.Int64
}

// regDir is the immutable published directory of an instance's register
// arrays. Mutation = copy + CAS (see store.array).
type regDir = map[string]*regArray

// newStore builds an instance with an empty published directory.
func newStore() *store {
	st := &store{}
	dir := regDir{}
	st.regs.Store(&dir)
	return st
}

// regArray is one register array: per-owner CAS cells beneath an
// RCU-published snapshot.
type regArray struct {
	// version counts winning merges. A snapshot is current iff its ver
	// equals this counter; merges bump it after their cell CAS succeeds,
	// so any reader that observes the new version also observes the cell
	// write that caused it.
	version atomic.Uint64
	cells   atomic.Pointer[cellDir]
	snap    atomic.Pointer[snapshot]
}

// MaxOwners bounds the entry owners a server stores. Owners are
// participant ids, dense in [0, k), and they index the cell directory
// directly, so an owner is also an allocation size: without a bound one
// hostile propagate with owner wire.MaxID would allocate a 16 GiB
// directory. A propagate carrying any owner at or above MaxOwners is
// refused whole with a busy reply, before admission, so it merges nothing
// and creates no election instance (see Server.Handle). The bound leaves
// room for elections far larger than any quorum deployment runs, and caps
// one array's directory at 256 KiB.
const MaxOwners = 1 << 14

// minCellDir is the smallest directory an array publishes. Growth doubles
// from it until the directory covers the owner, so an array only
// low-numbered participants write stays small.
const minCellDir = 4

// cellDir is the immutable published owner-indexed slot directory of one
// array: every index holds that owner's permanent slot.
type cellDir = []*cellSlot

// cellSlot is one owner's cell: an atomic pointer to the immutable
// current value, nil until the owner's first merge. The slot itself is
// permanent once published in a cellDir — growth copies slot pointers,
// never slots — and only the value pointer moves.
type cellSlot struct {
	v atomic.Pointer[cellVal]
}

// cellVal is one immutable register-cell state under writer versioning.
type cellVal struct {
	seq uint64
	val rt.Value
}

// snapshot is the RCU-published view of one register array: the
// owner-ordered entries and their encoded reply tail (wire.AppendEntries),
// valid at array version ver. Published snapshots are immutable — a
// winning merge makes them stale, never different.
type snapshot struct {
	ver     uint64
	entries []rt.Entry
	enc     []byte
}

// array returns the register array for reg, creating and publishing it on
// first use. Lock-free: creation copies the directory and CASes the
// pointer, retrying if a concurrent creator won (and adopting its array).
func (st *store) array(reg string) *regArray {
	for {
		dirp := st.regs.Load()
		if arr := (*dirp)[reg]; arr != nil {
			return arr
		}
		next := make(regDir, len(*dirp)+1)
		for k, v := range *dirp {
			next[k] = v
		}
		arr := &regArray{}
		next[reg] = arr
		if st.regs.CompareAndSwap(dirp, &next) {
			return arr
		}
	}
}

// dir returns arr's published cell directory; nil (empty) until the
// first merge.
func (arr *regArray) dir() cellDir {
	if dirp := arr.cells.Load(); dirp != nil {
		return *dirp
	}
	return nil
}

// slot returns owner's cell slot of arr, for 0 ≤ owner < MaxOwners. When
// owner is past the directory it grows it with the same copy-and-CAS
// discipline as store.array: the size doubles (from minCellDir) until it
// covers owner, the old slot pointers are copied and one block of fresh
// slots fills the rest.
func (arr *regArray) slot(owner rt.ProcID) *cellSlot {
	for {
		dirp := arr.cells.Load()
		var cur cellDir
		if dirp != nil {
			cur = *dirp
		}
		if int(owner) < len(cur) {
			return cur[owner]
		}
		size := max(2*len(cur), minCellDir)
		for size <= int(owner) {
			size *= 2
		}
		next := make(cellDir, size)
		copy(next, cur)
		fresh := make([]cellSlot, size-len(cur))
		for i := range fresh {
			next[len(cur)+i] = &fresh[i]
		}
		if arr.cells.CompareAndSwap(dirp, &next) {
			return next[owner]
		}
	}
}

// merge applies an entry under writer versioning: higher sequence numbers
// win, enforced by a CAS retry loop on the owner's cell. A losing merge
// (stale seq) is a no-op and leaves the published snapshot valid; a
// winning merge installs the new immutable cell value and bumps the array
// version, lazily invalidating the snapshot.
func (st *store) merge(e rt.Entry) {
	arr := st.array(e.Reg)
	s := arr.slot(e.Owner)
	for {
		cur := s.v.Load()
		if cur != nil && e.Seq <= cur.seq {
			return // losing merge: a newer (or equal) write already holds the cell
		}
		if s.v.CompareAndSwap(cur, &cellVal{seq: e.Seq, val: e.Val}) {
			arr.version.Add(1)
			return
		}
		// A concurrent merge moved the cell; reload and re-decide.
	}
}

// snapshotTail returns the encoded view tail (entry count + entries, in
// owner order — the canonical order both backends' stores use) of one
// register array, with zero locking: the common case is one atomic load
// of the published snapshot. When a merge has won since it was built, the
// caller rebuilds from the CAS cells and re-publishes; concurrent
// rebuilds may duplicate that work but each returns a valid snapshot, and
// the version tag keeps any stale publication self-correcting. hit
// reports whether the published encoding was served as-is (tracing
// detail; an empty or absent array counts as a hit — nothing was
// rebuilt). The returned bytes are immutable.
func (st *store) snapshotTail(reg string) (tail []byte, hit bool) {
	dirp := st.regs.Load()
	arr := (*dirp)[reg]
	if arr == nil {
		return emptyTail, true
	}
	// Version first, cells second: a snapshot built from cells read after
	// loading version V contains at least every merge version V counted,
	// and any later merge bumps the version past V, so tagging the build
	// with V can hide nothing — at worst the build is fresher than its
	// tag and the next collect rebuilds once more.
	ver := arr.version.Load()
	if snap := arr.snap.Load(); snap != nil && snap.ver == ver {
		return snap.enc, true
	}
	snap := arr.rebuild(reg, ver)
	if snap == nil {
		return emptyTail, false
	}
	if len(snap.entries) == 0 {
		return emptyTail, true
	}
	return snap.enc, false
}

// rebuild assembles and publishes a fresh snapshot of arr at version ver.
// It returns nil only for values outside the codec's domain — impossible
// for state that arrived through the codec; treated as an empty view
// rather than corrupting the stream.
func (arr *regArray) rebuild(reg string, ver uint64) *snapshot {
	old := arr.snap.Load()
	dir := arr.dir()
	// Size the entries by the occupied slots, not the directory: a slot
	// filled between the two passes just costs an append. Walking the
	// directory in index order yields the owner order directly.
	n := 0
	for _, s := range dir {
		if s.v.Load() != nil {
			n++
		}
	}
	out := make([]rt.Entry, 0, n)
	for owner, s := range dir {
		if cv := s.v.Load(); cv != nil {
			out = append(out, rt.Entry{Reg: reg, Owner: rt.ProcID(owner), Seq: cv.seq, Val: cv.val})
		}
	}
	snap := &snapshot{ver: ver, entries: out}
	if len(out) > 0 {
		enc, err := wire.AppendEntries(nil, reg, out)
		if err != nil {
			return nil
		}
		snap.enc = enc
	}
	// Publish unless somebody else already did: CAS from the observed old
	// snapshot, so a concurrent publication is never overwritten blindly.
	// If the CAS loses, the winner's snapshot serves future collects and
	// ours serves this one — both are valid at their tagged versions.
	if old == nil || old.ver <= ver {
		arr.snap.CompareAndSwap(old, snap)
	}
	return snap
}

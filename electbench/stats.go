package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a p99 of 200 samples is just the second-largest one.
const tailBeyond = 10

// tail is one reported upper percentile: Value is the Q-quantile of N
// samples, with at least tailBeyond samples above it unless Supported is
// false (then Value is the maximum and Q is 1).
type tail struct {
	Value     float64
	Q         float64
	N         int
	Supported bool
}

// tailPercentile returns the want-quantile of sorted (ascending) samples
// by nearest rank, or — when fewer than tailBeyond samples would lie above
// it — the highest quantile that still has tailBeyond samples beyond it.
func tailPercentile(sorted []float64, want float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	if n <= tailBeyond {
		return tail{Value: sorted[n-1], Q: 1, N: n}
	}
	// Nearest rank: the q-quantile is sorted[ceil(q·n)−1], which has
	// n−ceil(q·n) samples above it.
	rank := int(math.Ceil(want*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	q := want
	if n-rank < tailBeyond {
		rank = n - tailBeyond
		q = float64(rank) / float64(n)
	}
	return tail{Value: sorted[rank-1], Q: q, N: n, Supported: true}
}

// tailBlocks is how many consecutive blocks of a run's latencies the
// reported tail percentile is taken over; the report gives the median
// block's tail.
const tailBlocks = 5

// blockedTail splits samples, in completion order, into blocks of equal
// count, takes each block's want-quantile as tailPercentile does, and
// returns the median block's tail (N is then that block's size). A stall
// of the shared host lasting a fraction of the run moves the tail of the
// block it lands in, not the reported value. With fewer samples than
// blocks it is the tail of them all.
func blockedTail(samples []float64, want float64, blocks int) tail {
	if len(samples) < blocks || blocks < 1 {
		return tailPercentile(sortedCopy(samples), want)
	}
	tails := make([]tail, blocks)
	for b := range tails {
		lo, hi := b*len(samples)/blocks, (b+1)*len(samples)/blocks
		tails[b] = tailPercentile(sortedCopy(samples[lo:hi]), want)
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	return tails[blocks/2]
}

// median returns the median of sorted samples (0 for none).
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// mix64 is the splitmix64 finalizer: it turns the workload seed and an
// election index into independent per-election seeds.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// electionSeed derives election idx's PRNG seed from the workload seed.
// Participant i of the election uses electionSeed + i.
func electionSeed(seed int64, idx uint64) int64 {
	return int64(mix64(uint64(seed)^mix64(idx)) >> 1)
}

// usage is one read of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// settledRSSMB is the process's resident set, in MiB, once a forced
// collection has handed every free heap page back to the OS: the state the
// process keeps — what set-up built, what elections left behind — without
// the transient peak a backlog of elections in flight leaves in the heap.
func settledRSSMB() (float64, error) {
	debug.FreeOSMemory()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// Go runtime metrics the benchmark reads itself (see runtime/metrics).
const (
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCPauses  = "/sched/pauses/total/gc:seconds"
	rtSchedLats = "/sched/latencies:seconds"
)

// runtimeSnap is one read of the runtime metrics above.
type runtimeSnap struct {
	gcCycles uint64
	pauses   *metrics.Float64Histogram
	sched    *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rtGCCycles}, {Name: rtGCPauses}, {Name: rtSchedLats}}
	metrics.Read(s)
	var out runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[1].Value.Float64Histogram()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[2].Value.Float64Histogram()
	}
	return out
}

// histQuantile returns the q-quantile, in seconds, of the events a
// cumulative runtime histogram recorded between two reads. Within the
// bucket holding the quantile it interpolates linearly by rank, so the
// result moves with the distribution instead of snapping to bucket
// boundaries. 0 when nothing was recorded.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop a share of its puts
// on purpose, so pooled paths cannot be held to zero allocations.
const raceEnabled = true

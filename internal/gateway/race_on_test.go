//go:build race

package gateway

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of what is Put, so pooled paths allocate.
const raceEnabled = true

package gateway

// What is left of the read-side snapshot cache and of the bus's
// asynchronous delivery mode. Query, Sensors and Summary read current
// state under their locks, and every publish has delivered before it
// returns; these names remain only so that their last caller,
// cmd/jammbench, keeps compiling until it moves off them.

import "time"

// SnapshotOptions configured the removed snapshot cache.
//
// Deprecated: its fields are ignored. cmd/jammbench is the last caller.
type SnapshotOptions struct {
	MaxStale          time.Duration
	BackgroundRefresh bool
}

// EnableSnapshots does nothing: every read is already fresh.
//
// Deprecated: cmd/jammbench is the last caller.
func (g *Gateway) EnableSnapshots(SnapshotOptions) {}

// StopSnapshotRefresh does nothing: there is no refresher to stop.
//
// Deprecated: cmd/jammbench is the last caller.
func (g *Gateway) StopSnapshotRefresh() {}

// Flush does nothing: a publish has delivered to every subscriber by
// the time it returns, so there is nothing in flight to wait for.
//
// Deprecated: cmd/jammbench is the last caller.
func (g *Gateway) Flush() {}

// snapshotStats holds the removed cache's counters in Stats.
type snapshotStats struct {
	// Deprecated: always 0. cmd/jammbench is the last reader.
	SnapshotHits uint64
	// Deprecated: always 0. cmd/jammbench is the last reader.
	SnapshotMisses uint64
}

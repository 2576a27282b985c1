package router

import (
	"fmt"

	"jamm/internal/directory"
	"jamm/internal/ring"
	"jamm/internal/ulm"
)

// Rebalance moves the site onto a new gateway membership: the ring is
// swapped (dropping every cached placement), and each directory-
// advertised sensor whose ring-placed owner changed is handed off —
// the old owner drains the sensor's live state (metadata plus its
// last-event cache) over the wire, unregistering it there, and the
// drained records are re-published at the new owner, whose primary
// ingest re-registers the sensor and re-announces the directory entry.
// The advertisement is also rewritten directly, so routing flips even
// before the new owner's announcer runs.
//
// A dead old owner is skipped, not an error: its sensors re-home
// through the normal retry path (the next publish resolves the new
// ring), and anti-entropy reconciliation closes the archive gap. The
// paper's event-gateway failover story becomes an operator (or
// membership-watcher) verb: kill, rejoin, Rebalance.
//
// It returns how many sensors were handed off or re-advertised.
func (r *Router) Rebalance(newRing *ring.Ring) (moved int, err error) {
	if newRing == nil || newRing.Len() == 0 {
		return 0, fmt.Errorf("router: rebalance to empty ring")
	}
	r.SetRing(newRing)
	if r.opts.Directory == nil {
		return 0, nil
	}
	entries, err := r.opts.Directory.Search(r.opts.Base, directory.ScopeSubtree, "(objectclass=jammSensor)")
	if err != nil {
		return 0, err
	}
	var firstErr error
	for _, e := range entries {
		sensor, _ := e.Get("gwsensor")
		if sensor == "" {
			sensor, _ = e.Get("sensor")
		}
		if sensor == "" {
			continue
		}
		oldOwner, _ := e.Get(OwnerAttr)
		newOwner := newRing.Owner(sensor)
		if oldOwner == "" || oldOwner == newOwner {
			continue
		}
		st, found, herr := r.client(oldOwner).Handoff(sensor)
		r.owners.Delete(sensor)
		if herr != nil {
			// Old owner unreachable — likely the very death that
			// triggered this rebalance. Nothing to drain; flip the
			// advertisement so reads stop visiting the corpse.
			r.promoteTo(sensor, newOwner)
			moved++
			continue
		}
		if found && len(st.Recs) > 0 {
			// Primary ingest at the new owner: registers the sensor
			// there (firing its announcer) and seeds its last-event
			// cache with the drained state. Flushed synchronously — a
			// cached publisher may predate the owner's restart, and a
			// handoff buffered into a dead connection would silently
			// lose the drained state — with one retry on a fresh
			// connection.
			if serr := r.seedOwner(newOwner, sensor, st.Recs); serr != nil && firstErr == nil {
				firstErr = fmt.Errorf("router: rebalance %s to %s: %w", sensor, newOwner, serr)
			}
		}
		if found && (len(st.Summaries) > 0 || st.Agg != "") {
			// The drained summary windows and aggregate contribution move
			// with the sensor — the new owner continues the old owner's
			// Summary and aggregate answers instead of rebuilding them
			// over the next window-length of traffic.
			if serr := r.client(newOwner).SeedState(sensor, st.Summaries, st.Agg); serr != nil && firstErr == nil {
				firstErr = fmt.Errorf("router: rebalance %s to %s: seed state: %w", sensor, newOwner, serr)
			}
		}
		r.promoteTo(sensor, newOwner)
		moved++
	}
	return moved, firstErr
}

// seedOwner publishes handed-off records at addr over a fresh one-shot
// connection. The cached steady-state publisher is deliberately not
// used: it can predate the owner's restart, and a write into its
// half-dead socket may "succeed" (no RST yet) while the drained state
// silently dies with the old connection. A fresh dial talks to the
// live incarnation or fails loudly.
func (r *Router) seedOwner(addr, sensor string, recs []ulm.Record) error {
	p, err := r.client(addr).NewBatchPublisher(r.opts.Format, r.opts.BatchMax, 0)
	if err != nil {
		return err
	}
	if _, err := p.PublishBatch(sensor, recs); err != nil {
		p.Close() //nolint:errcheck
		return err
	}
	return p.Close()
}

// promoteTo rewrites sensor's directory advertisement to addr without
// counting a failover (rebalancing is deliberate, not a failure).
func (r *Router) promoteTo(sensor, addr string) {
	r.owners.Delete(sensor)
	if r.opts.Directory == nil {
		return
	}
	dn := SensorDN(r.opts.Base, sensor)
	if err := r.opts.Directory.Modify(dn, map[string][]string{OwnerAttr: {addr}}); err != nil {
		e := directory.NewEntry(dn, map[string]string{
			"objectclass": "jammSensor",
			"sensor":      sensor,
			"gwsensor":    sensor,
			OwnerAttr:     addr,
		})
		r.opts.Directory.Add(e) //nolint:errcheck // advisory: ring placement already routes here
	}
}

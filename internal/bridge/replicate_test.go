package bridge

import (
	"net"
	"testing"
	"time"

	"jamm/internal/gateway"
	"jamm/internal/ring"
	"jamm/internal/ulm"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A replica link holds each forwarded frame by reference and gives the
// reference back whether the frame was sent to a live replica or shed
// against a dead one.
func TestReplicaLinkReleasesFrames(t *testing.T) {
	// A port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name string
		up   bool
	}{{"replica up", true}, {"replica down", false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := gateway.FramesRetained()
			primary, psrv := startRemote(t)
			replica, rsrv := startRemote(t)
			target := dead
			if tc.up {
				target = rsrv.Addr()
			}
			rep := NewReplicator(psrv.Addr(), ring.New([]string{psrv.Addr(), target}, 16), 2,
				ReplicatorOptions{BatchMax: 4, BatchWait: time.Millisecond, MinBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
			primary.SetForwarder(rep)

			// Frames reach the primary over the wire, so what Forward
			// retains is the server reader's pooled buffer.
			pub, err := gateway.NewClient("sensor", psrv.Addr()).NewBatchPublisher("", 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := pub.Publish("cpu@h1", mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := pub.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the primary to ingest", func() bool { return primary.Stats().Published == n })
			if tc.up {
				waitFor(t, "the replica to ingest", func() bool { return replica.Stats().Published == n })
			} else {
				waitFor(t, "the dead link to shed", func() bool { return rep.Stats().Shed == n })
			}
			rep.Close()
			if st := rep.Stats(); st.Replicated+st.Shed != n {
				t.Fatalf("replicated %d + shed %d != %d forwarded", st.Replicated, st.Shed, n)
			}
			// What is left is each gateway's last-frame stash.
			primary.Unregister("cpu@h1")
			replica.Unregister("cpu@h1")
			waitFor(t, "the retained frames to be released", func() bool { return gateway.FramesRetained() == base })
		})
	}
}

// frameTrap is a Forwarder that keeps a reference to the first frame it
// is handed.
type frameTrap chan *gateway.Frame

func (c frameTrap) Forward(_ string, _ []ulm.Record, f *gateway.Frame) {
	if f != nil {
		select {
		case c <- f.Retain():
		default:
		}
	}
}

// TestForwardZeroAllocs: picking a forwarded frame's replica targets
// (k = 2) allocates nothing. The replica link's dial is held, so its
// queue holds one frame and sheds every later one: what is measured is
// Forward itself.
func TestForwardZeroAllocs(t *testing.T) {
	primary, psrv := startRemote(t)
	trap := make(frameTrap, 1)
	primary.SetForwarder(trap)
	pub, err := gateway.NewClient("sensor", psrv.Addr()).NewBatchPublisher("", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := pub.Publish("cpu@h1", mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	var f *gateway.Frame
	select {
	case f = <-trap:
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the forwarder")
	}
	defer f.Release()

	// A port nothing listens on, for when the held dial is let go.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	dialing, hold := make(chan struct{}, 1), make(chan struct{})
	self := psrv.Addr()
	rep := NewReplicator(self, ring.New([]string{self, dead}, 16), 2, ReplicatorOptions{
		QueueRecords: 1,
		Dial: func(addr string) *gateway.Client {
			select {
			case dialing <- struct{}{}:
			default:
			}
			<-hold
			return &gateway.Client{Addr: addr}
		},
	})
	defer rep.Close()
	defer close(hold)

	rep.Forward(f.Sensor, nil, f) // opens the link, whose goroutine takes the frame and dials
	<-dialing
	rep.Forward(f.Sensor, nil, f) // queued behind the held dial: the queue is full from here
	shed := rep.Stats().Shed
	if avg := testing.AllocsPerRun(1000, func() { rep.Forward(f.Sensor, nil, f) }); avg != 0 {
		t.Errorf("Forward costs %.1f allocs per frame, want 0", avg)
	}
	if st := rep.Stats(); st.Shed <= shed || st.Links != 1 {
		t.Fatalf("shed %d → %d over %d links: the frames did not reach the replica link", shed, st.Shed, st.Links)
	}
}

// TestReplicaLinkAdmitsOversizedFrame: a frame carrying more records
// than the link's whole queue budget is admitted into an empty queue —
// a one-item overshoot — and replicated, not shed forever.
func TestReplicaLinkAdmitsOversizedFrame(t *testing.T) {
	base := gateway.FramesRetained()
	primary, psrv := startRemote(t)
	replica, rsrv := startRemote(t)
	rep := NewReplicator(psrv.Addr(), ring.New([]string{psrv.Addr(), rsrv.Addr()}, 16), 2,
		ReplicatorOptions{QueueRecords: 8, BatchMax: 64, BatchWait: time.Millisecond})
	primary.SetForwarder(rep)

	const n = 32 // one frame, four times the budget
	pub, err := gateway.NewClient("sensor", psrv.Addr()).NewBatchPublisher("", n, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]ulm.Record, n)
	for i := range recs {
		recs[i] = mkRec("E", time.Duration(i)*time.Second, float64(i))
	}
	if _, err := pub.PublishBatch("cpu@h1", recs); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the replica to ingest", func() bool { return replica.Stats().Published == n })
	rep.Close()
	if st := rep.Stats(); st.Shed != 0 || st.Replicated != n {
		t.Fatalf("replicated %d, shed %d, want %d and 0", st.Replicated, st.Shed, n)
	}
	primary.Unregister("cpu@h1")
	replica.Unregister("cpu@h1")
	waitFor(t, "the retained frames to be released", func() bool { return gateway.FramesRetained() == base })
}

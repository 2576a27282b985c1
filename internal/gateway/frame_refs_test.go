package gateway

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// The ownership contract of relayed frames (see Frame): one pooled
// buffer per hop, shared by counted reference. Each test here fails if
// one Retain or one Release of the path it drives is deleted.

// numberedFrames is n one-record frames of sensor whose VAL counts up
// from 0, back to back as a reader would see them.
func numberedFrames(sensor string, n int) []byte {
	var stream []byte
	for i := 0; i < n; i++ {
		stream = appendBatchFrame(stream, 0, sensor, []ulm.Record{mkRec("E", time.Duration(i)*time.Second, float64(i))})
	}
	return stream
}

// readFrame reads the reader's next batch frame.
func readFrame(t testing.TB, fr *frameReader) *Frame {
	t.Helper()
	buf, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fr.batchFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// settled waits for every reference taken since base to be released.
func settled(t *testing.T, base int) {
	t.Helper()
	waitUntil(t, "retained frames to be released", func() bool { return FramesRetained() == base })
}

// A slow subscriber's queued frame keeps its exact bytes while the
// reader that produced it ingests a thousand more into the same pools.
func TestRetainedFrameKeepsBytesWhileReaderIngests(t *testing.T) {
	base := FramesRetained()
	g := New("gw", nil)
	sub, err := g.subscribeQueued(Request{}, 1, true, nil) // room for the first frame only
	if err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(bytes.NewReader(numberedFrames("cpu", 1001)))
	first := readFrame(t, fr)
	want := append([]byte(nil), first.Bytes()...)
	if err := g.PublishFrame(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := g.PublishFrame(readFrame(t, fr)); err != nil {
			t.Fatal(err)
		}
	}
	if d := sub.WireDrops(); d != 1000 {
		t.Fatalf("WireDrops = %d, want the 1000 frames behind the queued one", d)
	}
	its := sub.q.PopAll(nil)
	if len(its) != 1 || its[0].f == nil {
		t.Fatalf("queue holds %+v, want the first frame", its)
	}
	if got := its[0].f.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("queued frame changed under its holder:\n got %x\nwant %x", got, want)
	}
	if err := verifyFrame(its[0].f.Bytes()); err != nil {
		t.Fatalf("queued frame: %v", err)
	}
	its[0].f.Release()
	sub.Cancel()
	g.Unregister("cpu") // the last-frame stash
	settled(t, base)
}

// The last Release spoils the CRC word, so bytes used after their
// release fail the check the next hop makes.
func TestReleasedFrameFailsCRC(t *testing.T) {
	fr := newFrameReader(bytes.NewReader(numberedFrames("cpu", 1)))
	f := readFrame(t, fr)
	g := f.Retain()
	stale := g.Bytes()
	f.Release()
	if err := verifyFrame(stale); err != nil {
		t.Fatalf("frame with one holder left: %v", err)
	}
	g.Release()
	if err := verifyFrame(stale); !errors.Is(err, errBadFrame) {
		t.Fatalf("verifyFrame of released bytes = %v, want errBadFrame", err)
	}
}

// A mutator on a frame somebody else also holds moves the caller to a
// private copy first: the other holder's bytes stay as they were.
func TestSetHopsOnRetainedFrameUnshares(t *testing.T) {
	base := FramesRetained()
	fr := newFrameReader(bytes.NewReader(numberedFrames("cpu", 1)))
	f := readFrame(t, fr)
	f.SetHops(1) // sole owner: in place
	held := f.Retain()
	want := append([]byte(nil), held.Bytes()...)
	f.SetHops(5)
	f.SetReplica(true)
	if f.Hops() != 5 || !f.Replica() || verifyFrame(f.Bytes()) != nil {
		t.Fatalf("mutated frame: hops %d replica %v verify %v", f.Hops(), f.Replica(), verifyFrame(f.Bytes()))
	}
	if !bytes.Equal(held.Bytes(), want) || held.Hops() != 1 || held.Replica() {
		t.Fatalf("the other holder's bytes changed: hops %d replica %v", held.Hops(), held.Replica())
	}
	held.Release()
	f.Release()
	settled(t, base)
}

// TestRetentionOversizedFrame: a frame above the largest pooled class
// is allocated exactly and dropped on release, so the connection that
// carried it is back in the small class — and pins nothing at all
// while it waits for its next frame.
func TestRetentionOversizedFrame(t *testing.T) {
	small := appendBatchFrame(nil, 0, "cpu", fatRun(1, 2))
	big := appendBatchFrame(nil, 0, "cpu", fatRun(2048, 12))
	if len(big) <= 64<<(len(framePools)-1) {
		t.Fatalf("the big frame is %d bytes, not above the largest pooled class", len(big))
	}
	var stream []byte
	stream = append(append(append(stream, small...), big...), small...)
	fr := newFrameReader(bytes.NewReader(stream))
	readFrame(t, fr)
	if f := readFrame(t, fr); cap(f.Bytes()) != len(big) || f.mem.pool != nil {
		t.Fatalf("oversized frame: cap %d, pooled %v, want exactly %d bytes, unpooled", cap(f.Bytes()), f.mem.pool != nil, len(big))
	}
	if f := readFrame(t, fr); cap(f.Bytes()) >= 2*len(small) {
		t.Fatalf("after an oversized frame a %d-byte frame sits in a %d-byte buffer", len(small), cap(f.Bytes()))
	}
	if _, err := fr.next(); err == nil {
		t.Fatal("read past the end of the stream")
	}
	if fr.frame.mem != nil {
		t.Fatal("a reader between frames still holds a frame buffer")
	}
}

// errConn fails every write.
type errConn struct{ net.Conn }

func (errConn) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// Every way a retained frame leaves a subscription gives its reference
// back: written out, shed at push, lost to a failed write in the middle
// of a burst, queued at Cancel, queued at server Close.
func TestFramesRetainedBalance(t *testing.T) {
	frame := func(i int) *Frame {
		f := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu", []ulm.Record{mkRec("E", time.Duration(i)*time.Second, float64(i))}))
		return &f
	}
	t.Run("written", func(t *testing.T) {
		base := FramesRetained()
		g := New("gw", nil)
		srv, err := ServeTCP(g, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var got atomic.Int64
		st, err := NewClient("", srv.Addr()).SubscribeFrameStream(Request{}, StreamOptions{}, func(f *Frame) { got.Add(int64(f.Count)) })
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 100; i++ {
			if err := g.PublishFrame(frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "the frames to arrive", func() bool { return got.Load() == 100 })
		if _, ok, err := g.Query("", "cpu", "E"); err != nil || !ok { // takes the stash out
			t.Fatalf("Query: %v %v", ok, err)
		}
		settled(t, base)
	})
	t.Run("shed at push and queued at Cancel", func(t *testing.T) {
		base := FramesRetained()
		g := New("gw", nil)
		sub, err := g.subscribeQueued(Request{}, 4, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := g.PublishFrame(frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		if d := sub.WireDrops(); d != 6 {
			t.Fatalf("WireDrops = %d, want 6", d)
		}
		if n := FramesRetained() - base; n != 5 {
			t.Fatalf("%d frames retained, want the 4 queued and the stash", n)
		}
		sub.Cancel()
		g.Unregister("cpu")
		settled(t, base)
	})
	t.Run("write error mid-burst", func(t *testing.T) {
		base := FramesRetained()
		g := New("gw", nil)
		sub, err := g.subscribeQueued(Request{}, 0, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		w := newFrameCodec(errConn{}, nil).events("", sub)
		for i := 0; i < 3; i++ {
			w.(frameRelay).relay(&frameItem{f: frame(i).Retain()})
		}
		if err := w.commit(); err == nil {
			t.Fatal("commit over a dead connection succeeded")
		}
		settled(t, base)
	})
	t.Run("server Close with a stalled subscriber", func(t *testing.T) {
		base := FramesRetained()
		g := New("gw", nil)
		srv, err := ServeTCP(g, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rc := &rawConn{t: t, conn: conn, fr: newFrameReader(conn)}
		rc.hello(2)
		rc.sendCtl(`{"op":"subscribe"}`)
		rc.readFrame() // the ack; from here on the subscriber reads nothing
		big := mustParseFrame(t, appendBatchFrame(nil, 0, "cpu", fatRun(64, 12)))
		for i := 0; i < 4096; i++ { // more than the socket buffers take
			if err := g.PublishFrame(&big); err != nil {
				t.Fatal(err)
			}
		}
		if FramesRetained() == base {
			t.Fatal("nothing is queued: the subscriber is not stalled")
		}
		srv.Close()
		g.Unregister("cpu")
		settled(t, base)
	})
}

// countConn records each Write call on the server's side of a pipe.
type countConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// Sixteen frames queued behind a cooked partial leave in one write
// call, the partial first and the frames in order.
func TestSubscriberBurstOneWrite(t *testing.T) {
	base := FramesRetained()
	g := New("gw", nil)
	srv, err := ServeTCP(g, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	cc := &countConn{Conn: server}
	go srv.serveConn(cc) // ends when the deferred client.Close hangs up

	rc := &rawConn{t: t, conn: client, fr: newFrameReader(client)}
	rc.hello(2)
	// The pipe is synchronous: the pump cannot get past its subscribe ack
	// until the test reads it, so everything published before that is
	// queued when the pump first looks.
	rc.sendCtl(`{"op":"subscribe","batch_max":64,"batch_wait_ms":1000}`)
	waitUntil(t, "the subscription", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.subs) == 1
	})
	g.Publish("mem", mkRec("E", 0, -1)) // cooked: a partial frame at batch_max 64
	fr := newFrameReader(bytes.NewReader(numberedFrames("cpu", 16)))
	for i := 0; i < 16; i++ {
		if err := g.PublishFrame(readFrame(t, fr)); err != nil {
			t.Fatal(err)
		}
	}
	rc.readFrame() // the ack
	for i := -1; i < 16; i++ {
		buf, err := rc.fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		f, err := rc.fr.batchFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		recs, err := f.Records(nil)
		if err != nil || len(recs) != 1 {
			t.Fatalf("frame %d: %d records, %v", i, len(recs), err)
		}
		if v, _ := recs[0].Float("VAL"); v != float64(i) {
			t.Fatalf("frame %d carries VAL %v: out of order", i, v)
		}
	}
	cc.mu.Lock()
	writes := len(cc.writes)
	cc.mu.Unlock()
	if writes != 3 { // hello answer, subscribe ack, the burst
		t.Fatalf("%d write calls, want 3: the burst of 17 frames must leave in one", writes)
	}
	client.Close()
	g.Unregister("cpu")
	settled(t, base)
}

// TestRelayHopZeroAllocs: a warmed relay hop — PublishFrame into a
// subscriber's queue and the last-frame stash, the pump's take, the
// writer's gathered write and the releases — allocates nothing per
// frame.
func TestRelayHopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	g := New("gw", nil)
	sub, err := g.subscribeQueued(Request{}, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	w := newFrameCodec(nopConn{}, nil).events("", sub)
	relay := w.(frameRelay)
	fr := newFrameReader(&replayReader{data: appendBatchFrame(nil, 0, "cpu@h1", fatRun(4, 1))})
	var burst []frameItem
	assertNoAllocs(t, "read, PublishFrame, queue, gathered write", func() {
		for i := 0; i < 16; i++ {
			buf, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			f, err := fr.batchFrame(buf)
			if err == nil {
				err = g.PublishFrame(f)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		burst = sub.q.PopAll(burst)
		if len(burst) != 16 {
			t.Fatalf("took %d frames, want 16", len(burst))
		}
		for i := range burst {
			relay.relay(&burst[i])
		}
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		sub.q.Settle()
	})
}

// TestFrameRefcountStress (run it under -race): one reader feeds a
// gateway whose subscribers, stash readers and a mutating holder all
// share its buffers; every frame any of them sees must still pass its
// CRC, and every reference must come back.
func TestFrameRefcountStress(t *testing.T) {
	base := FramesRetained()
	g := New("gw", nil)
	var bad, seen atomic.Int64
	check := func(f *Frame) {
		seen.Add(1)
		if verifyFrame(f.Bytes()) != nil {
			bad.Add(1)
		}
	}
	var subs []*Subscription
	for i := 0; i < 3; i++ {
		sub, err := g.SubscribeFramesFunc(Request{}, 64, nil, check, func(string, []ulm.Record) {})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	// A holder that rewrites what it retained: it must get its own copy.
	mut, err := g.SubscribeFramesFunc(Request{}, 64, nil, func(f *Frame) {
		h := f.Retain()
		h.SetHops(h.Hops() + 1)
		check(h)
		h.Release()
	}, func(string, []ulm.Record) {})
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, mut)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the stash's take-out sites
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.Query("", "cpu", "E") //nolint:errcheck // racing registration is fine
				g.Sensors()
			}
		}
	}()
	fr := newFrameReader(&replayReader{data: numberedFrames("cpu", 64)})
	for i := 0; i < 20000; i++ {
		if err := g.PublishFrame(readFrame(t, fr)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, sub := range subs {
		waitUntil(t, "the subscribers to drain", func() bool { return sub.ChanBacklog() == 0 })
		sub.Cancel()
	}
	g.Unregister("cpu")
	if bad.Load() != 0 || seen.Load() == 0 {
		t.Fatalf("%d of %d frames failed their CRC in a holder's hands", bad.Load(), seen.Load())
	}
	settled(t, base)
}

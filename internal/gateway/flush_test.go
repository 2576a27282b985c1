package gateway

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/ulm"
)

// Flush when idle, batch under load: nothing on the wire path holds a
// record for a timer. A publisher's partial batch and a subscription's
// partial frame leave as soon as their writer is idle; what arrives
// while a write is under way leaves together in the next. The tests
// here hold a writer at a write with a gate instead of pacing anything.

// writeGate holds the Writes of the connections behind it while it is
// shut, and counts the ones it let through.
type writeGate struct {
	mu      sync.Mutex
	opened  chan struct{} // closed while the gate is open
	arrived chan struct{} // a token per Write that found the gate shut
	writes  atomic.Int64
}

func newWriteGate() *writeGate {
	g := &writeGate{opened: make(chan struct{}), arrived: make(chan struct{}, 64)}
	close(g.opened)
	return g
}

func (g *writeGate) shut() {
	g.mu.Lock()
	g.opened = make(chan struct{})
	g.mu.Unlock()
}

func (g *writeGate) open() {
	g.mu.Lock()
	close(g.opened)
	g.mu.Unlock()
}

// await returns once a Write is held at the shut gate.
func (g *writeGate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no write reached the gate")
	}
}

type gatedConn struct {
	net.Conn
	g *writeGate
}

func (c gatedConn) Write(p []byte) (int, error) {
	c.g.mu.Lock()
	opened := c.g.opened
	c.g.mu.Unlock()
	select {
	case <-opened:
	default:
		c.g.arrived <- struct{}{}
		<-opened
	}
	c.g.writes.Add(1)
	return c.Conn.Write(p)
}

// serveGated serves srv on a second listener whose connections write
// through a gate.
func serveGated(t *testing.T, srv *TCPServer) (addr string, gate *writeGate) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	gate = newWriteGate()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				srv.serveConn(gatedConn{conn, gate})
			}()
		}
	}()
	return ln.Addr().String(), gate
}

// gatedSite is a gateway served through a gate, and a client of it in
// the framing p.
func gatedSite(t *testing.T, p Proto) (*Gateway, *Client, *writeGate) {
	t.Helper()
	g, srv := startServer(t)
	addr, gate := serveGated(t, srv)
	c := NewClient("", addr)
	c.Protocol = p
	return g, c, gate
}

// gatedPublisher is a flush-when-idle publisher of up to 64 records a
// frame in the framing p, writing through a gate to g, and a channel of
// the batch sizes g ingested — the wire's frames, one sensor each.
func gatedPublisher(t *testing.T, p Proto) (*Publisher, *writeGate, <-chan int) {
	t.Helper()
	g, srv := startServer(t)
	ingested := make(chan int, 1024)
	g.Bus().SubscribeBatchTopics("", nil, func(_ string, recs []ulm.Record) { ingested <- len(recs) })
	c := NewClient("", srv.Addr())
	c.Protocol = p
	conn, cdc, err := c.dialCodec(FormatULM)
	if err != nil {
		t.Fatal(err)
	}
	gate := newWriteGate()
	// The codec writes to the connection it was made on; a second one on
	// the gated connection builds the publisher's frames.
	conn = gatedConn{conn, gate}
	if cdc.version() == 1 {
		cdc = newLineCodec(conn, conn, 0)
	} else {
		cdc = newFrameCodec(conn, conn)
	}
	pub := newPublisher(conn, cdc, FormatULM, 64, FlushWhenIdle)
	t.Cleanup(func() { pub.Close() })
	return pub, gate, ingested
}

var bothFramings = []struct {
	name string
	p    Proto
}{{"json", ProtoJSON}, {"v2", ProtoV2}}

// Idle flushes: a subscriber that asked for windows of 64 and a second
// of batch wait gets three records at once, and a batch publisher sends
// one record without being told to.
func TestIdleFlushes(t *testing.T) {
	for _, fr := range bothFramings {
		t.Run("subscriber/"+fr.name, func(t *testing.T) {
			g, c, _ := gatedSite(t, fr.p)
			got := make(chan int, 8)
			st, err := c.SubscribeBatchStream(Request{}, StreamOptions{BatchMax: 64, BatchWait: time.Second},
				func(_ string, recs []ulm.Record) { got <- len(recs) })
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			g.PublishBatch("cpu", transcriptBatch("LOAD", 0, 3))
			select {
			case n := <-got:
				if n != 3 {
					t.Fatalf("a frame of %d records, want the 3 published", n)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("three records still held 100ms after they were published")
			}
		})
		t.Run("publisher/"+fr.name, func(t *testing.T) {
			pub, _, ingested := gatedPublisher(t, fr.p)
			if err := pub.Publish("cpu", mkRec("LOAD", 0, 1)); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ingested:
			case <-time.After(100 * time.Millisecond):
				t.Fatal("one record still held 100ms after it was published")
			}
		})
	}
}

// Load batches, the publisher's half: with the connection held at its
// first write, N publishes wait for the lock; once the write returns
// they fill frames of 64 and the flusher leaves them to it, so N runs
// leave in at most ⌈N·runLen/64⌉+1 writes, none of them split.
func TestLoadBatchesPublisher(t *testing.T) {
	const n, runLen = 40, 4
	for _, fr := range bothFramings {
		t.Run(fr.name, func(t *testing.T) {
			pub, gate, ingested := gatedPublisher(t, fr.p)
			gate.shut()
			base := gate.writes.Load()
			publish := func(i int) {
				// A sensor each, so no two runs join into one frame.
				if w, err := pub.PublishBatch(fmt.Sprint("s", i), transcriptBatch("LOAD", i*runLen, runLen)); err != nil || w != runLen {
					t.Errorf("publish %d: %d written, %v", i, w, err)
				}
			}
			publish(0)
			gate.await(t) // the flusher, holding the publisher's lock
			var wg sync.WaitGroup
			for i := 1; i < n; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); publish(i) }()
			}
			waitUntil(t, "every publish to queue for the lock", func() bool { return pub.waiting.Load() == n-1 })
			gate.open()
			wg.Wait()
			for got := 0; got < n*runLen; {
				select {
				case c := <-ingested:
					if c != runLen {
						t.Fatalf("a frame of %d records: a run of %d was split or joined", c, runLen)
					}
					got += c
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d records arrived", got, n*runLen)
				}
			}
			if w, max := gate.writes.Load()-base, int64((n*runLen+63)/64+1); w > max {
				t.Fatalf("%d runs of %d left in %d writes, want at most %d", n, runLen, w, max)
			}
		})
	}
}

// Load batches, the subscription's half: what is delivered while the
// pump is held at a write leaves in the next one, in full frames.
func TestLoadBatchesSubscriber(t *testing.T) {
	const n, runLen = 40, 4
	for _, fr := range bothFramings {
		t.Run(fr.name, func(t *testing.T) {
			g, c, gate := gatedSite(t, fr.p)
			got := make(chan int, 2*n)
			st, err := c.SubscribeBatchStream(Request{}, StreamOptions{BatchMax: 64},
				func(_ string, recs []ulm.Record) { got <- len(recs) })
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			gate.shut()
			base := gate.writes.Load()
			g.PublishBatch("cpu", transcriptBatch("LOAD", 0, runLen))
			gate.await(t) // the pump, writing the first run
			for i := 1; i < n; i++ {
				g.PublishBatch("cpu", transcriptBatch("LOAD", i*runLen, runLen))
			}
			gate.open()
			sizes := []int{}
			for sum := 0; sum < n*runLen; {
				select {
				case c := <-got:
					sizes = append(sizes, c)
					sum += c
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d records arrived, in batches of %v", sum, n*runLen, sizes)
				}
			}
			// The run behind the held write, two full frames, and the rest.
			want := []int{runLen, 64, 64, (n-1)*runLen - 128}
			if len(sizes) != len(want) {
				t.Fatalf("frames of %v records, want %v", sizes, want)
			}
			for i := range want {
				if sizes[i] != want[i] {
					t.Fatalf("frames of %v records, want %v", sizes, want)
				}
			}
			if w := gate.writes.Load() - base; w != 2 {
				t.Fatalf("%d writes, want 2: the held one and one for all that queued behind it", w)
			}
		})
	}
}

// The flusher's write error is the publisher's: it sticks, and the
// records that were buffered are counted as dropped.
func TestFlusherWriteErrorSticks(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	defer client.Close()
	pub := newPublisher(client, newFrameCodec(client, client), FormatULM, 64, FlushWhenIdle)
	if n, err := pub.PublishBatch("cpu", transcriptBatch("LOAD", 0, 3)); n != 3 || err != nil {
		t.Fatalf("buffering publish: %d written, %v", n, err)
	}
	waitUntil(t, "the flusher's write to fail", func() bool { return pub.Dropped() == 3 })
	_, err := pub.PublishBatch("cpu", transcriptBatch("LOAD", 3, 1))
	if err == nil {
		t.Fatal("publish succeeded after the flusher's write failed")
	}
	if ferr := pub.Flush(); !errors.Is(ferr, err) {
		t.Fatalf("Flush returns %v, the publish %v: the error does not stick", ferr, err)
	}
	if d := pub.Dropped(); d != 3 {
		t.Fatalf("Dropped = %d, want 3: the refused record never entered the buffer", d)
	}
}

// closeCountConn counts Close calls and fails them all.
type closeCountConn struct {
	nopConn
	closes int
}

var errCloseCount = errors.New("close failed")

func (c *closeCountConn) Close() error { c.closes++; return errCloseCount }

// Close is idempotent — one close of the connection, the same result
// every time — and stops the flusher: a hundred publishers opened and
// closed leave no goroutine behind.
func TestPublisherCloseIdempotent(t *testing.T) {
	conn := &closeCountConn{}
	pub := newPublisher(conn, newFrameCodec(conn, conn), FormatULM, 64, FlushWhenIdle)
	pub.Publish("cpu", mkRec("LOAD", 0, 1)) //nolint:errcheck
	for i := 0; i < 3; i++ {
		if err := pub.Close(); err != errCloseCount {
			t.Fatalf("Close %d returns %v, want the first result", i, err)
		}
	}
	if conn.closes != 1 {
		t.Fatalf("the connection was closed %d times", conn.closes)
	}
	if err := pub.Publish("cpu", mkRec("LOAD", 0, 2)); err == nil {
		t.Fatal("publish on a closed publisher succeeded")
	}

	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		conn := &closeCountConn{}
		p := newPublisher(conn, newFrameCodec(conn, conn), FormatULM, 64, FlushWhenIdle)
		p.Publish("cpu", mkRec("LOAD", 0, float64(i))) //nolint:errcheck
		p.Close()                                      //nolint:errcheck
		p.Close()                                      //nolint:errcheck
	}
	// Close returns once the flusher has signalled that it is leaving,
	// which is an instruction or two before it is gone.
	waitUntil(t, "the flushers of 100 closed publishers to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// No hold timer on the wire path: a record waits for a writer, never
// for a clock. The wire files may time a dial or a handshake with
// deadlines; a timer, in any of time's three spellings, is how a hold
// comes back.
func TestNoTimersOnTheWire(t *testing.T) {
	files, err := filepath.Glob("wire*.go")
	if err != nil || len(files) < 5 {
		t.Fatalf("found %v (%v): the scan is not seeing the wire files", files, err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
				switch sel.Sel.Name {
				case "NewTimer", "AfterFunc", "After", "NewTicker", "Tick":
					t.Errorf("%s: time.%s — the wire path sends when its writer is idle and holds nothing for a timer", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jamm/internal/auth"
	"jamm/internal/ulm"
	"jamm/internal/window"
)

func startServer(t *testing.T) (*Gateway, *TCPServer) {
	t.Helper()
	g := New("gw1", nil)
	g.Register("cpu", Meta{Host: "h1.lbl.gov", Type: "cpu", Interval: time.Second})
	srv, err := ServeTCP(g, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return g, srv
}

func TestWireQueryAndList(t *testing.T) {
	g, srv := startServer(t)
	g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Second, 42))

	c := NewClient("", srv.Addr())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	rec, found, err := c.Query("cpu", "VMSTAT_SYS_TIME")
	if err != nil || !found {
		t.Fatalf("query: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 42 {
		t.Fatalf("VAL = %v", v)
	}
	if _, found, err := c.Query("cpu", "NOPE"); err != nil || found {
		t.Fatalf("query absent event: %v found=%v", err, found)
	}
	if _, _, err := c.Query("ghost", "E"); err == nil {
		t.Fatal("query unknown sensor succeeded over wire")
	}
	infos, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "cpu" || infos[0].Host != "h1.lbl.gov" {
		t.Fatalf("list = %+v", infos)
	}
}

func TestWireSummary(t *testing.T) {
	g, srv := startServer(t)
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E", 0, 10))
	g.Publish("cpu", mkRec("E", time.Second, 30))

	c := NewClient("", srv.Addr())
	pts, err := c.Summary("cpu", "E", "VAL")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Avg != 20 || pts[0].Count != 2 {
		t.Fatalf("summary = %+v", pts)
	}
}

// TestWireSummarySkipsNonFiniteSamples: NaN and ±Inf are no
// measurement. A summary leaves them out and answers on the connection
// it was asked on, and a handoff of the series carries the samples there
// are, in its one window's slots.
func TestWireSummarySkipsNonFiniteSamples(t *testing.T) {
	g, srv := startServer(t)
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	c := NewClient("", srv.Addr())
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, 2} {
		g.Publish("cpu", mkRec("E", time.Duration(i)*time.Second, v))
	}
	pts, err := c.Summary("cpu", "E", "VAL")
	if err != nil || len(pts) != 1 || pts[0].Count != 2 || pts[0].Avg != 1.5 {
		t.Fatalf("summary = %+v, %v; want count 2, avg 1.5", pts, err)
	}
	if a := srv.WireStats().Accepts; a != 1 {
		t.Fatalf("%d connections accepted for a ping and a summary, want 1", a)
	}
	st, found, err := c.Handoff("cpu")
	if err != nil || !found || len(st.Summaries) != 1 || len(st.Summaries[0].Slots) != 1 {
		t.Fatalf("handoff = %+v, found %v, %v; want the series with one slot ring", st, found, err)
	}
	slots, err := window.Parse(st.Summaries[0].Slots[0], false)
	var sum window.Stat
	for _, s := range slots {
		sum.Merge(s.Stat)
	}
	if err != nil || sum != (window.Stat{Count: 2, Sum: 3, Min: 1, Max: 2}) {
		t.Fatalf("handed-off slots %q hold %+v, %v; want the 2 finite samples", st.Summaries[0].Slots[0], sum, err)
	}
}

// TestRefusedHandoffKeepsState: a handoff asking for a format that does
// not exist is refused before anything is drained, so the sensor stays
// registered here with its last event and its summary.
func TestRefusedHandoffKeepsState(t *testing.T) {
	g, srv := startServer(t)
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E", 0, 42))
	c := NewClient("", srv.Addr())
	defer c.Close()
	_, err := c.dialTrip(&wireRequest{Op: "handoff", Format: "bogus", Request: Request{Sensor: "cpu"}}, false, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("handoff in a bogus format: %v, want unknown format", err)
	}
	if rec, found, err := g.Query("", "cpu", "E"); err != nil || !found || mustVal(t, rec) != 42 {
		t.Fatalf("query after the refused handoff: %s, found %v, %v", rec.String(), found, err)
	}
	if pts, err := g.Summary("", "cpu", "E", "VAL"); err != nil || pts[0].Count != 1 {
		t.Fatalf("summary after the refused handoff: %+v, %v", pts, err)
	}
	if infos := g.Sensors(); len(infos) != 1 || infos[0].Name != "cpu" {
		t.Fatalf("listing after the refused handoff: %+v", infos)
	}
}

// TestControlFallbackNotTaken: every control message of the sessions a
// client runs on the hot ops — a kept connection's pings, queries in
// each format, summary and refused op, subscribe acks and a retune in
// both framings, history requests and their eof in both — is appended
// and scanned at both ends: none goes through encoding/json.
func TestControlFallbackNotTaken(t *testing.T) {
	g, srv, _ := startHistoryServer(t, t.TempDir())
	g.EnableSummary("cpu@h1", "VMSTAT_SYS_TIME", "VAL", time.Minute)
	recs := fatRun(8, 2)
	g.PublishBatch("cpu@h1", recs)
	before := controlFallbacks.Load()

	c := NewClient("", srv.Addr())
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drops(); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{FormatULM, FormatXML, FormatBinary} {
		resp, err := c.roundTrip(wireRequest{Op: "query", Format: format, Event: "VMSTAT_SYS_TIME", Request: Request{Sensor: "cpu@h1"}}, nil)
		if err != nil || !resp.Found {
			t.Fatalf("query in %s: found %v, %v", format, resp.Found, err)
		}
	}
	if _, found, err := c.Query("cpu@h1", "VMSTAT_SYS_TIME"); err != nil || !found {
		t.Fatalf("query: found %v, %v", found, err)
	}
	if pts, err := c.Summary("cpu@h1", "VMSTAT_SYS_TIME", "VAL"); err != nil || len(pts) != 1 {
		t.Fatalf("summary: %+v, %v", pts, err)
	}
	if _, err := c.roundTrip(wireRequest{Op: "frob"}, nil); err == nil {
		t.Fatal("unknown op answered ok")
	}

	for _, p := range []Proto{ProtoJSON, ProtoV2} {
		c := NewClient("", srv.Addr())
		c.Protocol = p
		var got, largest atomic.Int64
		st, err := c.SubscribeBatchStream(Request{Sensor: "cpu@h1"}, StreamOptions{BatchMax: 4}, func(_ string, recs []ulm.Record) {
			got.Add(int64(len(recs)))
			largest.Store(max(largest.Load(), int64(len(recs))))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SetBatchMax(2); err != nil {
			t.Fatal(err)
		}
		// The retune has been read once frames of two arrive.
		waitUntil(t, "the retune", func() bool {
			largest.Store(0)
			want := got.Load() + int64(len(recs))
			g.PublishBatch("cpu@h1", recs)
			waitUntil(t, "the records", func() bool { return got.Load() == want })
			return largest.Load() == 2
		})
		st.Close()
		<-st.Done()
		n, err := c.HistoryStream(HistoryRequest{Sensor: "cpu@h1", BatchMax: 4}, func(string, []ulm.Record) error { return nil })
		if err != nil || n < len(recs) {
			t.Fatalf("history over protocol %d: %d records, %v", p, n, err)
		}
	}
	if n := controlFallbacks.Load() - before; n != 0 {
		t.Fatalf("%d control messages went through encoding/json", n)
	}
}

func subscribeAndCollect(t *testing.T, c *Client, req Request, format string) (*[]ulm.Record, *sync.Mutex, func()) {
	t.Helper()
	var mu sync.Mutex
	recs := &[]ulm.Record{}
	stop, err := c.Subscribe(req, format, func(r ulm.Record) {
		mu.Lock()
		*recs = append(*recs, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, &mu, stop
}

func waitFor(t *testing.T, mu *sync.Mutex, recs *[]ulm.Record, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(*recs)
		mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("timed out waiting for %d records, have %d", n, len(*recs))
}

func TestWireSubscribeStreamsAllFormats(t *testing.T) {
	for _, format := range []string{FormatULM, FormatXML, FormatBinary} {
		t.Run(format, func(t *testing.T) {
			g, srv := startServer(t)
			c := NewClient("", srv.Addr())
			recs, mu, stop := subscribeAndCollect(t, c, Request{Sensor: "cpu"}, format)
			defer stop()
			// Give the subscription a moment to register server-side.
			deadline := time.Now().Add(2 * time.Second)
			for g.Consumers("cpu") == 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
			g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Second, 10))
			g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", 2*time.Second, 20))
			waitFor(t, mu, recs, 2)
			mu.Lock()
			defer mu.Unlock()
			if v, _ := (*recs)[1].Float("VAL"); v != 20 {
				t.Fatalf("streamed VAL = %v", v)
			}
			if (*recs)[0].Host != "h1.lbl.gov" || (*recs)[0].Event != "VMSTAT_SYS_TIME" {
				t.Fatalf("streamed record mangled: %+v", (*recs)[0])
			}
		})
	}
}

func TestWireSubscribeBadFormat(t *testing.T) {
	_, srv := startServer(t)
	c := NewClient("", srv.Addr())
	if _, err := c.Subscribe(Request{}, "cuneiform", func(ulm.Record) {}); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestWireStopEndsStream(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())
	recs, mu, stop := subscribeAndCollect(t, c, Request{Sensor: "cpu"}, FormatULM)
	deadline := time.Now().Add(2 * time.Second)
	for g.Consumers("cpu") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	g.Publish("cpu", mkRec("E", 0, 1))
	waitFor(t, mu, recs, 1)
	stop()
	// The server notices the closed connection and cancels the
	// subscription.
	deadline = time.Now().Add(5 * time.Second)
	for g.Consumers("cpu") > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.Consumers("cpu"); got != 0 {
		t.Fatalf("consumers after stop = %d", got)
	}
}

func TestWireAccessControlByCertificate(t *testing.T) {
	ca, err := auth.NewCA("Gateway CA")
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	insider, err := ca.IssueClient("Jason Lee", nil, []string{"LBNL"})
	if err != nil {
		t.Fatal(err)
	}
	outsider, err := ca.IssueClient("Rich Wolski", nil, []string{"UTK"})
	if err != nil {
		t.Fatal(err)
	}

	g := New("gw1", nil)
	g.Register("cpu", Meta{Host: "h1"})
	g.EnableSummary("cpu", "E", "VAL", time.Minute)
	g.Publish("cpu", mkRec("E", 0, 5))
	g.SetAuthorizer(auth.ClassPolicy{
		Internal:        []string{"*O=LBNL*"},
		ExternalActions: []string{auth.ActionSummary},
	})
	srv, err := ServeTCP(g, "127.0.0.1:0", ca.ServerTLS(serverCert, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in := NewClient("", srv.Addr())
	in.TLS = ca.ClientTLS(insider, "127.0.0.1")
	if _, found, err := in.Query("cpu", "E"); err != nil || !found {
		t.Fatalf("insider query: %v found=%v", err, found)
	}

	out := NewClient("", srv.Addr())
	out.TLS = ca.ClientTLS(outsider, "127.0.0.1")
	if _, _, err := out.Query("cpu", "E"); err == nil {
		t.Fatal("outsider query allowed")
	}
	if _, err := out.Summary("cpu", "E", "VAL"); err != nil {
		t.Fatalf("outsider summary denied: %v", err)
	}
	// A forged principal claim cannot bypass the certificate identity.
	forged := NewClient("CN=fake,O=LBNL", srv.Addr())
	forged.TLS = ca.ClientTLS(outsider, "127.0.0.1")
	if _, _, err := forged.Query("cpu", "E"); err == nil {
		t.Fatal("forged principal claim accepted over TLS")
	}
}

func TestWirePublisher(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())
	pub, err := c.NewPublisher(FormatULM)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 3; i++ {
		if err := pub.Publish("remote.cpu", mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Publication is asynchronous; poll the gateway for arrival.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().Published >= 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.Stats().Published; got != 3 {
		t.Fatalf("published = %d, want 3", got)
	}
	rec, found, err := c.Query("remote.cpu", "E")
	if err != nil || !found {
		t.Fatalf("query after remote publish: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 2 {
		t.Fatalf("latest VAL = %v", v)
	}
}

func TestDecodePayloadErrors(t *testing.T) {
	for _, tc := range []struct{ format, payload, what string }{
		{FormatULM, "not a record", "bad ULM"},
		{FormatXML, "<broken", "bad XML"},
		{FormatBinary, "!!!not-base64!!!", "bad base64"},
		{FormatBinary, "AAAA", "bad binary payload"},
		{"cuneiform", "x", "unknown format"},
	} {
		var in inboundEvents
		in.addEvent("s", tc.payload)
		failed := 0
		n, err := in.runs(tc.format, func(error) error { failed++; return nil }, func(string, []ulm.Record) error { return nil })
		if n != 0 || err != nil || failed != 1 {
			t.Errorf("%s: %d records delivered, %d refused, %v", tc.what, n, failed, err)
		}
	}
	if err := checkFormat("cuneiform"); err == nil {
		t.Fatal("unknown encode format accepted")
	}
}

func TestPublisherBadFormat(t *testing.T) {
	_, srv := startServer(t)
	c := NewClient("", srv.Addr())
	if _, err := c.NewPublisher("cuneiform"); err == nil {
		// Format validation happens on first Publish; either is fine
		// as long as records do not silently disappear.
		pub, _ := c.NewPublisher("cuneiform")
		if pub != nil {
			if err := pub.Publish("s", mkRec("E", 0, 1)); err == nil {
				t.Fatal("publishing with unknown format silently succeeded")
			}
			pub.Close()
		}
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, srv := startServer(t)
	c := NewClient("", srv.Addr())
	if _, err := c.roundTrip(wireRequest{Op: "frobnicate"}, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// One malformed line on a persistent connection must not kill the
// connection: the peer gets an error line and subsequent publishes on
// the same connection still arrive.
func TestWireMalformedLineKeepsConnection(t *testing.T) {
	g, srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		t.Fatalf("error response unparseable: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("expected error response, got %+v", resp)
	}
	// The connection survives: a valid publish on the same stream lands.
	rec := mkRec("E", time.Second, 7)
	frame, err := json.Marshal(wireRequest{Op: "publish", Rec: rec.String(), Request: Request{Sensor: "cpu"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(frame, '\n')); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Published; got != 1 {
		t.Fatalf("published after malformed line = %d, want 1", got)
	}
	if st := srv.WireStats(); st.BadLines != 1 {
		t.Fatalf("bad lines = %d, want 1", st.BadLines)
	}
}

// Undecodable publish records are counted (and answered on pings), not
// silently discarded, and later records on the same connection still
// arrive.
func TestWireBadRecordCountedNotSilent(t *testing.T) {
	g, srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad, err := json.Marshal(wireRequest{Op: "publish", Rec: "not a ulm record", Request: Request{Sensor: "cpu"}})
	if err != nil {
		t.Fatal(err)
	}
	goodRec := mkRec("E", time.Second, 9)
	goodFrame, err := json.Marshal(wireRequest{Op: "publish", Rec: goodRec.String(), Request: Request{Sensor: "cpu"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{bad, goodFrame} {
		if _, err := conn.Write(append(frame, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Published; got != 1 {
		t.Fatalf("published = %d, want 1 (bad record dropped, good one kept)", got)
	}
	if st := srv.WireStats(); st.BadRecords != 1 {
		t.Fatalf("bad records = %d, want 1", st.BadRecords)
	}
	drops, err := NewClient("", srv.Addr()).Drops()
	if err != nil {
		t.Fatal(err)
	}
	if drops != 1 {
		t.Fatalf("ping drops = %d, want 1", drops)
	}
}

// A batched publisher coalesces records into {"recs": ...} frames and
// every record still arrives, full batches and idle-flushed partials
// alike.
func TestWireBatchPublisher(t *testing.T) {
	g, srv := startServer(t)
	c := NewClient("", srv.Addr())
	pub, err := c.NewBatchPublisher(FormatULM, 4, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const n = 10 // full frames of 4 + whatever the flusher sent early
	for i := 0; i < n; i++ {
		if err := pub.Publish(fmt.Sprintf("s%d", i%2), mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Published; got != n {
		t.Fatalf("published = %d, want %d", got, n)
	}
	// Per-record sensors inside the batch frame are honored.
	rec, found, err := c.Query("s1", "E")
	if err != nil || !found {
		t.Fatalf("query after batched publish: %v found=%v", err, found)
	}
	if v, _ := rec.Float("VAL"); v != 9 {
		t.Fatalf("latest VAL on s1 = %v, want 9", v)
	}
	if st := srv.WireStats(); st.Drops() != 0 {
		t.Fatalf("unexpected wire drops: %+v", st)
	}
}

// Explicit Flush pushes a partial batch out (maxWait 0 = no flusher:
// nothing else would).
func TestWireBatchPublisherFlush(t *testing.T) {
	g, srv := startServer(t)
	pub, err := NewClient("", srv.Addr()).NewBatchPublisher(FormatULM, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 3; i++ {
		if err := pub.Publish("cpu", mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Published; got != 3 {
		t.Fatalf("published after Flush = %d, want 3", got)
	}
}

// Batched subscribe streams round-trip in all three payload formats,
// with the topic carried per record.
func TestWireSubscribeBatchedAllFormats(t *testing.T) {
	for _, format := range []string{FormatULM, FormatXML, FormatBinary} {
		t.Run(format, func(t *testing.T) {
			g, srv := startServer(t)
			c := NewClient("", srv.Addr())
			var mu sync.Mutex
			type got struct {
				sensor string
				rec    ulm.Record
			}
			var recs []got
			st, err := c.SubscribeBatchStream(Request{}, StreamOptions{Format: format, BatchMax: 8, BatchWait: 2 * time.Millisecond},
				func(sensor string, batch []ulm.Record) {
					mu.Lock()
					for _, rec := range batch {
						recs = append(recs, got{sensor, rec.Clone()})
					}
					mu.Unlock()
				})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			const n = 20
			for i := 0; i < n; i++ {
				g.Publish("cpu", mkRec("VMSTAT_SYS_TIME", time.Duration(i)*time.Second, float64(i)))
			}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				done := len(recs) >= n
				mu.Unlock()
				if done {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(recs) != n {
				t.Fatalf("received %d records, want %d", len(recs), n)
			}
			for i, g := range recs {
				if g.sensor != "cpu" {
					t.Fatalf("record %d sensor = %q, want cpu", i, g.sensor)
				}
				if v, _ := g.rec.Float("VAL"); v != float64(i) {
					t.Fatalf("record %d VAL = %v, want %d (order lost?)", i, v, i)
				}
			}
			if st.DecodeErrors() != 0 {
				t.Fatalf("decode errors = %d", st.DecodeErrors())
			}
		})
	}
}

// Slow-consumer drops on a subscription are counted server-side and
// the cumulative counter reaches the subscriber on event frames.
func TestWireSlowConsumerDropsCounted(t *testing.T) {
	old := wireSubChanDepth
	wireSubChanDepth = 1
	defer func() { wireSubChanDepth = old }()

	g, srv := startServer(t)
	c := NewClient("", srv.Addr())
	release := make(chan struct{})
	var mu sync.Mutex
	var seen int
	var blocked bool
	st, err := c.SubscribeBatchStream(Request{Sensor: "cpu"}, StreamOptions{}, func(string, []ulm.Record) {
		mu.Lock()
		seen++
		first := !blocked
		blocked = true
		mu.Unlock()
		if first {
			<-release // stall the reader so the wire path backs up
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	deadline := time.Now().Add(2 * time.Second)
	for g.Consumers("cpu") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// A fat payload fills the socket buffers quickly once the reader
	// stalls; with a channel depth of 1 the overflow must be dropped —
	// and counted.
	fat := mkRec("E", 0, 1)
	fat.Fields = append(fat.Fields, ulm.Field{Key: "PAD", Value: strings.Repeat("x", 64*1024)})
	for i := 0; i < 600; i++ {
		fat.Date = benchDate(i)
		g.Publish("cpu", fat)
	}
	if st := srv.WireStats(); st.SubDrops == 0 {
		t.Fatal("no slow-consumer drops counted despite stalled reader")
	}
	close(release)
	// Once the reader drains, the piggybacked drop counter arrives.
	deadline = time.Now().Add(5 * time.Second)
	for st.RemoteDrops() == 0 && time.Now().Before(deadline) {
		g.Publish("cpu", mkRec("E", time.Hour, 2))
		time.Sleep(5 * time.Millisecond)
	}
	if st.RemoteDrops() == 0 {
		t.Fatal("drop counter never reached the subscriber")
	}
}

func benchDate(i int) time.Time { return time.Unix(int64(i), 0).UTC() }

// A peer that sends nothing but garbage is cut off after a bounded
// streak (its unread error responses must never fill the socket
// buffers), and every bad line is counted.
func TestWireGarbageStreakClosesConnection(t *testing.T) {
	_, srv := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < maxConsecutiveBadLines; i++ {
		if _, err := fmt.Fprintf(conn, "garbage %d\n", i); err != nil {
			t.Fatal(err)
		}
	}
	// The server closes after the streak; draining the error responses
	// must end in EOF rather than hang.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	for {
		if _, err := br.ReadString('\n'); err != nil {
			break
		}
	}
	if st := srv.WireStats(); st.BadLines != maxConsecutiveBadLines {
		t.Fatalf("bad lines = %d, want %d", st.BadLines, maxConsecutiveBadLines)
	}
}

// A locally closed stream is a clean shutdown: Done closes and Err
// stays nil.
func TestWireStreamCloseIsNotAnError(t *testing.T) {
	_, srv := startServer(t)
	c := NewClient("", srv.Addr())
	st, err := c.SubscribeBatchStream(Request{Sensor: "cpu"}, StreamOptions{}, func(string, []ulm.Record) {})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	select {
	case <-st.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stream never terminated after Close")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err after local Close = %v, want nil", err)
	}
}

// Drained shutdown, in both framings: records queued for a subscriber
// or in its writer's hands still reach it before the server closes. DrainSubscribers has no grace period to hide behind: a
// record counts as in flight from the moment it is queued until the
// frame carrying it has been written, dequeued or not, so the moment
// the drain reports idle the server may close.
func TestWireDrainedShutdownFlushesPartialBatches(t *testing.T) {
	for _, proto := range []Proto{ProtoJSON, ProtoV2} {
		g := New("gw1", nil)
		srv, err := ServeTCP(g, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := NewClient("", srv.Addr())
		c.Protocol = proto
		var mu sync.Mutex
		var seen int
		st, err := c.SubscribeBatchStream(Request{Sensor: "cpu"}, StreamOptions{BatchMax: 64, BatchWait: 500 * time.Millisecond},
			func(_ string, recs []ulm.Record) {
				mu.Lock()
				seen += len(recs)
				mu.Unlock()
			})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 3; i++ {
			g.Publish("cpu", mkRec("E", time.Duration(i)*time.Second, float64(i)))
		}
		// The 3 records sit in the server's queue or its writer's hands;
		// the drain must wait them out rather than report idle.
		srv.StopAccepting()
		if !srv.DrainSubscribers(5 * time.Second) {
			t.Fatalf("v%d: drain timed out", st.Version())
		}
		srv.Close()
		select {
		case <-st.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("v%d: stream never ended after the server closed", st.Version())
		}
		mu.Lock()
		if seen != 3 {
			t.Fatalf("v%d: subscriber saw %d of 3 records across drained shutdown", st.Version(), seen)
		}
		mu.Unlock()
	}
}

// An oversized batch is clamped client-side so a full frame can never
// exceed the server's line limit.
func TestWireBatchPublisherClampsBatchSize(t *testing.T) {
	g, srv := startServer(t)
	pub, err := NewClient("", srv.Addr()).NewBatchPublisher(FormatULM, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if pub.maxRecs != maxBatchRecords {
		t.Fatalf("maxRecs = %d, want clamped to %d", pub.maxRecs, maxBatchRecords)
	}
	for i := 0; i < 3; i++ {
		if err := pub.Publish("cpu", mkRec("E", time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Published < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := g.Stats().Published; got != 3 {
		t.Fatalf("published = %d, want 3", got)
	}
}

// stallConn is a net.Conn whose Write blocks until the test releases
// it — a peer that has stopped draining its receive buffer.
type stallConn struct {
	net.Conn
	release chan struct{}
}

func (c *stallConn) Write(b []byte) (int, error) {
	<-c.release
	return len(b), nil
}

// TestSetBatchMaxStalledPeerDoesNotBlockErr is the regression test for
// a lock-hold-across-I/O bug: SetBatchMax used to perform its network
// write while holding the stream's err mutex, so a stalled peer pinned
// the lock and Err() (and the reader goroutine's stream-end path) hung
// behind it. The control write must serialize only against other
// control writes.
func TestSetBatchMaxStalledPeerDoesNotBlockErr(t *testing.T) {
	release := make(chan struct{})
	conn := &stallConn{release: release}
	s := &Stream{conn: conn, cdc: newLineCodec(conn, conn, 0), done: make(chan struct{})}
	defer close(release)

	writing := make(chan struct{})
	go func() {
		close(writing)
		s.SetBatchMax(8) //nolint:errcheck
	}()
	<-writing

	errDone := make(chan struct{})
	go func() {
		_ = s.Err()
		close(errDone)
	}()
	select {
	case <-errDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Err() blocked behind a stalled SetBatchMax control write")
	}
}

// Sixteen batches queued for a JSON-lines subscriber leave in one write
// call, as sixteen lines in order, and the partial behind them in the
// same write.
func TestLineBurstOneWrite(t *testing.T) {
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
	// The pipe is synchronous: the pump cannot get past its subscribe ack
	// until the test reads it, so everything published before that is
	// queued when the pump first looks.
	rc.sendLine(`{"op":"subscribe","format":"xml","batch_max":4,"batch_wait_ms":1000}`)
	waitUntil(t, "the subscription", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.subs) == 1
	})
	for i := 0; i < 16; i++ {
		g.PublishBatch("cpu", transcriptBatch("LOAD", 4*i, 4))
	}
	g.Publish("mem", mkRec("FREE", 0, -1)) // the partial
	rc.readLine()                          // the ack
	var in inboundEvents
	next := 0
	for i := 0; i < 16; i++ {
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		line, err := rc.fr.br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		var resp wireResponse
		if !in.scan(bytes.TrimSpace(line), &resp) {
			t.Fatalf("line %d is not an event line: %s", i, line)
		}
		n, err := in.runs(FormatXML, func(err error) error { return err }, func(sensor string, recs []ulm.Record) error {
			for _, r := range recs {
				if v, _ := r.Float("VAL"); sensor != "cpu" || v != float64(next) {
					t.Fatalf("line %d carries %s VAL %v, want cpu VAL %d: out of order", i, sensor, v, next)
				}
				next++
			}
			return nil
		})
		if n != 4 || err != nil {
			t.Fatalf("line %d: %d records, %v", i, n, err)
		}
	}
	rc.readLine() // the partial
	cc.mu.Lock()
	writes := len(cc.writes)
	cc.mu.Unlock()
	if writes != 2 { // subscribe ack, the burst
		t.Fatalf("%d write calls, want 2: the burst of 16 lines and a partial must leave in one", writes)
	}
}

// TestEventLineFallbackNotTaken: a subscription and a history replay in
// either text format are read by the scanners alone — no line goes
// through encoding/json, no payload through encoding/xml.
func TestEventLineFallbackNotTaken(t *testing.T) {
	g, srv, _ := startHistoryServer(t, t.TempDir())
	recs := fatRun(40, 3)
	recs[7].Fields[1].Value = `quotes " and <markup> & more`
	g.PublishBatch("cpu@h1", recs)
	c := NewClient("", srv.Addr())
	c.Protocol = ProtoJSON
	for _, format := range []string{FormatULM, FormatXML} {
		for _, batchMax := range []int{1, 16} {
			var got atomic.Int64
			st, err := c.SubscribeBatchStream(Request{}, StreamOptions{Format: format, BatchMax: batchMax}, func(_ string, recs []ulm.Record) {
				got.Add(int64(len(recs)))
			})
			if err != nil {
				t.Fatal(err)
			}
			g.PublishBatch("cpu@h1", recs)
			waitUntil(t, "the subscription's records", func() bool { return got.Load() == int64(len(recs)) })
			st.Close()
			<-st.Done()
			if st.in.fallbacks != 0 || st.in.batch.Fallbacks() != 0 || st.DecodeErrors() != 0 {
				t.Errorf("subscribe %s/%d: %d lines through encoding/json, %d payloads through encoding/xml, %d decode errors",
					format, batchMax, st.in.fallbacks, st.in.batch.Fallbacks(), st.DecodeErrors())
			}
		}
		conn, cdc, err := c.dialCodec(format)
		if err != nil {
			t.Fatal(err)
		}
		var in inboundEvents
		n, err := c.history(conn, cdc, &in, HistoryRequest{Format: format, BatchMax: 16}, func(string, []ulm.Record) error { return nil })
		conn.Close()
		if err != nil || n < len(recs) {
			t.Fatalf("history %s: %d records, %v", format, n, err)
		}
		if in.fallbacks != 0 || in.batch.Fallbacks() != 0 {
			t.Errorf("history %s: %d lines through encoding/json, %d payloads through encoding/xml", format, in.fallbacks, in.batch.Fallbacks())
		}
	}
}

package gateway

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"time"

	"jamm/internal/ulm"
)

// lineCodec is the JSON-lines framing: one JSON object per line in
// either direction, event payloads inside it as strings in the
// requested format.
type lineCodec struct {
	// A server reads through sc: lines are capped, and one that is not
	// JSON is consumed whole and can be skipped. A client reads through
	// dec: it trusts its server, takes objects of any size, and ends the
	// stream at the first thing that is not one.
	sc  *bufio.Scanner
	dec *json.Decoder
	enc *json.Encoder
	// hist is writeBatch's frame, reused across a history answer.
	hist []wireEvent
}

// newLineCodec frames conn as JSON lines, reading from r (conn itself,
// or a buffered reader already holding bytes of it). maxLine > 0 makes
// it a server's: no inbound line may be longer. The line buffer starts
// small and grows on demand: most connections are one-shot
// query/summary/list calls or a hello line (clients dial per call).
func newLineCodec(conn net.Conn, r io.Reader, maxLine int) *lineCodec {
	c := &lineCodec{enc: json.NewEncoder(conn)}
	if maxLine > 0 {
		c.sc = bufio.NewScanner(r)
		c.sc.Buffer(nil, maxLine)
	} else {
		c.dec = json.NewDecoder(r)
	}
	return c
}

func (c *lineCodec) version() int { return 1 }

func (c *lineCodec) read(ctl any) (*Frame, error) {
	if c.dec != nil {
		return nil, c.dec.Decode(ctl)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	if err := json.Unmarshal(c.sc.Bytes(), ctl); err != nil {
		return nil, &badMessage{err: err, answer: true}
	}
	return nil, nil
}

func (c *lineCodec) write(ctl any) error { return c.enc.Encode(ctl) }

func (c *lineCodec) checkFormat(format string) error {
	_, err := encodeRecord(format, ulm.Record{Date: time.Unix(0, 0), Host: "x", Prog: "x", Lvl: "x"})
	return err
}

func (c *lineCodec) eventFormat(format string) string { return format }

// lineEvents writes event frames as JSON lines: the records of a frame
// carry their sensor each, so one frame mixes sensors.
type lineEvents struct {
	c      *lineCodec
	format string
	// drops, when set, is the cumulative slow-consumer drop counter
	// piggybacked on every frame so the subscriber can observe loss it
	// never received.
	drops func() uint64
	lost  func()
	batch []wireEvent
}

func (c *lineCodec) events(format string, sub *Subscription) eventWriter {
	return &lineEvents{c: c, format: format, drops: sub.WireDrops, lost: func() { sub.shed(1) }}
}

func (c *lineCodec) writeBatch(format, sensor string, recs []ulm.Record, lost func()) (int, error) {
	w := lineEvents{c: c, format: format, lost: lost, batch: c.hist[:0]}
	w.add(sensor, recs, math.MaxInt) //nolint:errcheck // the window never fills: nothing is written
	c.hist = w.batch
	return len(w.batch), w.flush()
}

func (w *lineEvents) add(sensor string, recs []ulm.Record, bm int) (wrote bool, err error) {
	for i := range recs {
		payload, err := encodeRecord(w.format, recs[i])
		if err != nil {
			// A record this format cannot carry (e.g. an XML-hostile byte
			// in a field) is a wire drop like any other: counted, per
			// record, and the stream — and the rest of the batch — lives.
			w.lost()
			continue
		}
		if bm == 1 && len(w.batch) == 0 {
			// Single-record frames: the wire-compatible format.
			if err := w.emit(wireResponse{OK: true, Sensor: sensor, Rec: payload}); err != nil {
				return true, err
			}
			wrote = true
			continue
		}
		w.batch = append(w.batch, wireEvent{Sensor: sensor, Rec: payload})
		if len(w.batch) >= bm {
			if err := w.flush(); err != nil {
				return true, err
			}
			wrote = true
		}
	}
	return wrote, nil
}

func (w *lineEvents) pending() int { return len(w.batch) }

func (w *lineEvents) flush() error {
	if len(w.batch) == 0 {
		return nil
	}
	err := w.emit(wireResponse{OK: true, Recs: w.batch})
	w.batch = nil
	return err
}

// commit has nothing to do: lines are written as they finish.
func (w *lineEvents) commit() error { return nil }

func (w *lineEvents) emit(resp wireResponse) error {
	if w.drops != nil {
		resp.Drops = w.drops()
	}
	return w.c.enc.Encode(resp)
}

// linePubBatch buffers a Publisher's records as encoded payloads and
// sends them as one {"recs":[...]} request, or as one {"rec":...}
// request each.
type linePubBatch struct {
	c               *lineCodec
	format          string
	single, replica bool
	buf             []wireEvent
}

func (c *lineCodec) newBatch(format string, single bool) pubBatch {
	return &linePubBatch{c: c, format: format, single: single}
}

func (b *linePubBatch) add(sensor string, rec ulm.Record) (int, error) {
	payload, err := encodeRecord(b.format, rec)
	if err != nil {
		return 0, err
	}
	b.buf = append(b.buf, wireEvent{Sensor: sensor, Rec: payload})
	return len(sensor) + len(payload), nil
}

func (b *linePubBatch) markReplica() { b.replica = true }

func (b *linePubBatch) flush() error {
	buf := b.buf
	b.buf = nil
	if len(buf) == 0 {
		return nil
	}
	if !b.single {
		return b.c.enc.Encode(wireRequest{Op: "publish", Format: b.format, Recs: buf, Replica: b.replica})
	}
	for _, ev := range buf {
		req := wireRequest{Op: "publish", Format: b.format, Rec: ev.Rec, Replica: b.replica, Request: Request{Sensor: ev.Sensor}}
		if err := b.c.enc.Encode(req); err != nil {
			return err
		}
	}
	return nil
}

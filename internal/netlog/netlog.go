// Package netlog implements the NetLogger Toolkit client API and
// log-collection tools (paper §4): an instrumentation API that stamps
// application events with microsecond timestamps and writes them as ULM
// records to memory, a file, or a remote collector over TCP, plus the
// tools that merge per-sensor logs into a single time-ordered file for
// visualization with nlv.
//
// The Go shape of the paper's Java example (§4.4):
//
//	log := netlog.New("testprog", netlog.WithHost("dpss1.lbl.gov"))
//	if err := log.DialTCP("dolly.lbl.gov:14830"); err != nil { ... }
//	log.Write("WriteIt", netlog.F("SEND.SZ", sz))
//	log.Close()
package netlog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// F builds a ULM user field, formatting the value with %v.
func F(key string, value any) ulm.Field {
	switch v := value.(type) {
	case string:
		return ulm.Field{Key: key, Value: v}
	case float64:
		return ulm.Field{Key: key, Value: fmt.Sprintf("%.6g", v)}
	default:
		return ulm.Field{Key: key, Value: fmt.Sprint(v)}
	}
}

// Destination consumes completed records. Implementations need not be
// concurrency-safe; the Logger serializes access.
type Destination interface {
	WriteRecord(*ulm.Record) error
	Close() error
}

// Option configures a Logger.
type Option func(*Logger)

// WithHost overrides the HOST field (default: os.Hostname).
func WithHost(host string) Option { return func(l *Logger) { l.host = host } }

// WithClock overrides the timestamp source; simulations pass the
// simulated host clock so events carry virtual time.
func WithClock(now func() time.Time) Option { return func(l *Logger) { l.now = now } }

// WithLevel overrides the LVL field (default Usage).
func WithLevel(lvl string) Option { return func(l *Logger) { l.level = lvl } }

// WithBuffer enables in-memory buffering of up to n records; the buffer
// flushes to the destination automatically when full, on Flush, and on
// Close (§4.4 "logging to memory ... explicitly flushed ... or
// automatically flushed when the buffer is full").
func WithBuffer(n int) Option { return func(l *Logger) { l.bufCap = n } }

// Logger is a NetLogger event log handle. It is safe for concurrent use.
type Logger struct {
	prog  string
	host  string
	level string
	now   func() time.Time

	mu     sync.Mutex
	dest   Destination
	buf    []ulm.Record
	bufCap int
	err    error // first destination error, reported on Flush/Close
}

// New returns a Logger for the named program. Without an explicit
// destination it discards records.
func New(prog string, opts ...Option) *Logger {
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	l := &Logger{
		prog:  prog,
		host:  host,
		level: ulm.LvlUsage,
		now:   time.Now,
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// SetDestination replaces the destination (closing nothing); callers own
// the lifecycle of prior destinations.
func (l *Logger) SetDestination(d Destination) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dest = d
}

// OpenFile appends records to the named file.
func (l *Logger) OpenFile(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.SetDestination(&writerDest{w: bufio.NewWriter(f), closer: f, flusher: true})
	return nil
}

// DialTCP streams records to a NetLogger collector at addr (§4.4
// "logging to ... a remote host").
func (l *Logger) DialTCP(addr string) error {
	conn, err := transport.Dial(addr, 5*time.Second, nil)
	if err != nil {
		return err
	}
	l.SetDestination(&writerDest{w: bufio.NewWriter(conn), closer: conn, flusher: true})
	return nil
}

// OpenWriter sends records to an io.Writer (ULM text lines).
func (l *Logger) OpenWriter(w io.Writer) {
	l.SetDestination(&writerDest{w: bufio.NewWriter(w), flusher: true})
}

// Write emits one event with the given user fields, stamping DATE, HOST,
// PROG and LVL automatically.
func (l *Logger) Write(event string, fields ...ulm.Field) {
	rec := ulm.Record{
		Date:   l.now(),
		Host:   l.host,
		Prog:   l.prog,
		Lvl:    l.level,
		Event:  event,
		Fields: fields,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeLocked(&rec)
}

// WriteRecord emits a fully formed record (used by sensors relaying
// readings they built themselves).
func (l *Logger) WriteRecord(rec ulm.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeLocked(&rec)
}

func (l *Logger) writeLocked(rec *ulm.Record) {
	if l.bufCap > 0 {
		l.buf = append(l.buf, *rec)
		if len(l.buf) >= l.bufCap {
			l.flushLocked()
		}
		return
	}
	l.sendLocked(rec)
}

func (l *Logger) sendLocked(rec *ulm.Record) {
	if l.dest == nil {
		return
	}
	if err := l.dest.WriteRecord(rec); err != nil && l.err == nil {
		l.err = err
	}
}

func (l *Logger) flushLocked() {
	for i := range l.buf {
		l.sendLocked(&l.buf[i])
	}
	l.buf = l.buf[:0]
}

// Flush drains the memory buffer to the destination and reports the
// first error seen since the last Flush/Close.
func (l *Logger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	if f, ok := l.dest.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil && l.err == nil {
			l.err = err
		}
	}
	err := l.err
	l.err = nil
	return err
}

// Close flushes and closes the destination.
func (l *Logger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	err := l.err
	l.err = nil
	if l.dest != nil {
		if cerr := l.dest.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.dest = nil
	}
	return err
}

// writerDest writes ULM text lines to an io.Writer.
type writerDest struct {
	w       *bufio.Writer
	closer  io.Closer
	flusher bool
}

func (d *writerDest) WriteRecord(r *ulm.Record) error {
	if _, err := d.w.WriteString(r.String()); err != nil {
		return err
	}
	return d.w.WriteByte('\n')
}

func (d *writerDest) Flush() error { return d.w.Flush() }

func (d *writerDest) Close() error {
	err := d.w.Flush()
	if d.closer != nil {
		if cerr := d.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MemoryDest accumulates records in memory; tests and in-process
// consumers read them back with Records.
type MemoryDest struct {
	mu   sync.Mutex
	recs []ulm.Record
}

// WriteRecord implements Destination.
func (d *MemoryDest) WriteRecord(r *ulm.Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recs = append(d.recs, r.Clone())
	return nil
}

// Close implements Destination.
func (d *MemoryDest) Close() error { return nil }

// Records returns a snapshot of everything written.
func (d *MemoryDest) Records() []ulm.Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]ulm.Record(nil), d.recs...)
}

// Len returns the number of records written.
func (d *MemoryDest) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.recs)
}

// FuncDest adapts a function to Destination; the JAMM sensor layer uses
// it to route application-sensor events into gateways.
type FuncDest func(ulm.Record) error

// WriteRecord implements Destination.
func (d FuncDest) WriteRecord(r *ulm.Record) error { return d(r.Clone()) }

// Close implements Destination.
func (d FuncDest) Close() error { return nil }

// BinaryDest writes records in the ULM binary framing (the gateway's
// high-throughput option).
type BinaryDest struct {
	w      *ulm.BinaryWriter
	closer io.Closer
}

// NewBinaryDest wraps w; if w is an io.Closer, Close closes it.
func NewBinaryDest(w io.Writer) *BinaryDest {
	d := &BinaryDest{w: ulm.NewBinaryWriter(w)}
	if c, ok := w.(io.Closer); ok {
		d.closer = c
	}
	return d
}

// WriteRecord implements Destination.
func (d *BinaryDest) WriteRecord(r *ulm.Record) error { return d.w.Write(r) }

// Close implements Destination.
func (d *BinaryDest) Close() error {
	if d.closer != nil {
		return d.closer.Close()
	}
	return nil
}

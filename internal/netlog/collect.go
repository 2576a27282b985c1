package netlog

import (
	"fmt"
	"io"
	"net"
	"os"

	"jamm/internal/transport"
	"jamm/internal/ulm"
)

// This file is the log-collection half of the toolkit (§4.1: "a set of
// tools for collecting and sorting log files"): merge per-sensor ULM
// files into one time-ordered stream, and a TCP collector that receives
// remote Logger streams.

// MergeFiles reads every named ULM log file, merges the records in
// timestamp order, and writes them to w.
func MergeFiles(w io.Writer, paths ...string) error {
	var all [][]ulm.Record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		recs, err := ulm.ReadAll(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("netlog: %s: %w", p, err)
		}
		ulm.SortByDate(recs)
		all = append(all, recs)
	}
	return ulm.WriteAll(w, ulm.Merge(all...))
}

// MergeReaders merges already-open ULM streams in timestamp order.
func MergeReaders(w io.Writer, readers ...io.Reader) error {
	var all [][]ulm.Record
	for i, r := range readers {
		recs, err := ulm.ReadAll(r)
		if err != nil {
			return fmt.Errorf("netlog: reader %d: %w", i, err)
		}
		ulm.SortByDate(recs)
		all = append(all, recs)
	}
	return ulm.WriteAll(w, ulm.Merge(all...))
}

// Collector is a TCP server that receives ULM text streams from remote
// Loggers (the "log to a remote host" destination) and hands each
// record to a sink. The embedded transport shell owns the listener and
// the connections: Addr, and Close, which stops accepting, closes live
// connections and waits for their handlers.
type Collector struct {
	*transport.Server
}

// NewCollector starts a collector on addr ("" or ":0" for an ephemeral
// port). The sink is called from connection goroutines and must be
// concurrency-safe.
func NewCollector(addr string, sink func(ulm.Record)) (*Collector, error) {
	// No first-read deadline here, on purpose: a logger may connect long
	// before it has its first event to send.
	srv, err := transport.Serve(addr, nil, func(conn net.Conn) {
		sc := ulm.NewScanner(conn)
		for sc.Scan() {
			sink(sc.Record())
		}
	})
	if err != nil {
		return nil, err
	}
	return &Collector{srv}, nil
}

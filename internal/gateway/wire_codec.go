package gateway

import (
	"jamm/internal/ulm"
)

// wireCodec is the framing of one wire connection — the only part of
// the protocol that differs between JSON lines (wire_json.go) and
// binary frames (wire_v2.go). Server and client hold one per
// connection; the read side and the write side may be used from two
// goroutines, one each.
type wireCodec interface {
	// version is the protocol version the framing implements.
	version() int

	// readRequest takes a server's next inbound message. A request is
	// read into req, which the caller zeroed, and a nil frame returned; a
	// record-batch frame, which only the binary framing has, is returned
	// instead, borrowed until the next read.
	// Errors come in three classes. A *badMessage (returned bare, never
	// wrapped) was consumed whole: the stream is still in sync and
	// skipping it is safe. errFrameTooBig and bufio.ErrTooLong mean no
	// resync point exists. Anything else is transport: EOF, timeouts,
	// resets.
	readRequest(req *wireRequest) (*Frame, error)
	// readResponse is readRequest on a client, for an answer. JSON lines
	// carry events in answers: a client that takes them sets resp.events
	// and finds them there. Otherwise resp.events is set to the codec's
	// own, whose events are good until the next read.
	readResponse(resp *wireResponse) (*Frame, error)
	// writeRequest and writeResponse send one control message. Neither
	// keeps the message.
	writeRequest(req *wireRequest) error
	writeResponse(resp *wireResponse) error

	// checkFormat reports whether the framing can carry events in the
	// payload format.
	checkFormat(format string) error
	// events returns the writer sub's event stream goes out through.
	events(format string, sub *Subscription) eventWriter
	// writeBatch writes one history batch as one event frame and returns
	// how many records it carried.
	writeBatch(format, sensor string, recs []ulm.Record) (int, error)

	// eventFormat is the payload format a client names in a subscribe
	// request — and decodes event messages with — when the caller asked
	// for format.
	eventFormat(format string) string
	// newBatch returns a Publisher's frame builder. single selects one
	// frame per record.
	newBatch(format string, single bool) pubBatch
}

// frameSplicer is what only the binary framing can do: move a batch
// that already exists as frame bytes without decoding it. A codec that
// implements it has its pass-through subscriptions take frames sealed
// (its eventWriter is a frameRelay), its history answers splice stored
// archive frames, and its pubBatch is a frameBatch.
type frameSplicer interface {
	// writeStored writes one stored archive frame — count ULM-binary
	// records — as event frames of at most batchMax records each when it
	// must be re-framed, and returns how many records it carried.
	writeStored(sensor string, count int, recBytes []byte, batchMax int) (int, error)
}

// eventWriter builds and writes a subscription's outbound event frames.
// Both framings hold frames back until commit, which the pump calls once
// it has handed over everything that was queued: that is what lets a
// burst leave in one write.
type eventWriter interface {
	// add appends a delivered batch to the open frame, finishing frames
	// as they reach bm records. It writes nothing.
	add(sensor string, recs []ulm.Record, bm int)
	// commit finishes the open frame and writes out everything held.
	commit() error
}

// frameRelay is the eventWriter of a framing that forwards relayed
// frames as raw bytes. relay finishes the open frame first and takes
// the item's frame, with its reference, for commit to release.
type frameRelay interface {
	relay(it *frameItem)
}

// pubBatch builds a Publisher's outbound frames.
type pubBatch interface {
	// add encodes one record into the open batch and returns the payload
	// bytes it added.
	add(sensor string, rec ulm.Record) (int, error)
	// markReplica flags everything added from here on as replicated
	// copies.
	markReplica()
	// flush writes the buffered batch out, if any, and starts the next.
	flush() error
}

// frameBatch is the pubBatch of a framing that forwards a pre-encoded
// frame's bytes untouched; splice returns the bytes it added.
type frameBatch interface {
	splice(f *Frame) int
}

// badMessage is the read error for a message that was consumed whole
// and made no sense: a line that is not JSON, a frame that fails its
// CRC or its payload parse. answer says the peer is owed an error
// response (JSON lines: a bad line sat where a request would; binary
// framing never answers, the frame may have been a publish).
type badMessage struct {
	err    error
	answer bool
}

func (b *badMessage) Error() string { return b.err.Error() }

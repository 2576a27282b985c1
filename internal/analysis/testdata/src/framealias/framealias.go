// Package framealias is the golden input for the framealias analyzer:
// a borrowed gateway.Frame must not outlive its producing call without
// Retain() or Clone(), and the handle Retain() returns must be kept.
package framealias

import "bus"
import "gateway"

type hub struct {
	last      *gateway.Frame
	lastBytes []byte
	lastBuf   []byte
	ch        chan *gateway.Frame
	count     int
	sensor    string
}

func (h *hub) keepUncloned(f *gateway.Frame) {
	h.last = f // want `borrowed frame "f" is stored into h.last without Retain\(\) or Clone`
}

func (h *hub) keepCloned(f *gateway.Frame) {
	h.last = f.Clone()
}

func (h *hub) keepRetained(f *gateway.Frame) {
	h.last.Release()
	h.last = f.Retain()
}

// The reference lives in the handle: thrown away, it can never be
// released. Flagged on any frame, borrowed or owned.
func (h *hub) retainDiscarded(f *gateway.Frame) {
	f.Retain()          // want `the handle Retain\(\) returns is discarded`
	_ = h.last.Retain() // want `the handle Retain\(\) returns is discarded`
}

func (h *hub) keepBytesAlias(f *gateway.Frame) {
	h.lastBytes = f.Bytes() // want `borrowed frame "f" is stored into h.lastBytes without Retain\(\) or Clone`
}

// The framehub lazy-decode idiom: append copies the frame's bytes into
// an owned buffer, so nothing aliases the borrowed one. No finding.
func (h *hub) keepBytesCopied(f *gateway.Frame) {
	h.lastBuf = append(h.lastBuf[:0], f.Bytes()...)
}

// Scalar field reads are value copies sharing nothing with the buffer.
func (h *hub) scalarFieldsOK(f *gateway.Frame) {
	h.count += f.Count
	h.sensor = f.Sensor
}

func (h *hub) sendUncloned(f *gateway.Frame) {
	h.ch <- f // want `borrowed frame "f" is sent on a channel without Retain\(\) or Clone`
}

func (h *hub) goCapture(f *gateway.Frame) {
	go h.consume(f) // want `borrowed frame "f" is captured by a goroutine without Retain\(\) or Clone`
}

func (h *hub) goCloned(f *gateway.Frame) {
	go h.consume(f.Clone())
}

func (h *hub) sendRetained(f *gateway.Frame) {
	h.ch <- f.Retain()
	go h.consume(f.Retain())
}

func (h *hub) consume(f *gateway.Frame) {}

// A frame arriving sealed, as in a bus.SubscribeSealed callback, is as
// borrowed as any: unwrapping it does not own it, Hold() does.
func (h *hub) keepSealed(s bus.Sealed) {
	h.last = s.(*gateway.Frame) // want `borrowed frame "s" is stored into h.last without Retain\(\) or Clone`
	h.last = s.Hold().(*gateway.Frame)
}

// annotated is the deliberate, justified exception.
func (h *hub) annotated(f *gateway.Frame) {
	h.last = f //jamm:frame-ok test fixture inspects the live frame synchronously before returning
}

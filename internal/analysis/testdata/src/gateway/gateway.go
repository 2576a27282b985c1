// Package gateway is a minimal stand-in for jamm/internal/gateway: the
// framealias analyzer matches the Frame type by package name, so this
// stub exercises the same code path as the real one.
package gateway

import "bus"

// Frame is a handle on a buffer the producing reader shares out by
// reference.
type Frame struct {
	Sensor string
	Count  int
	buf    []byte
}

// Bytes returns the borrowed backing buffer (an alias, not a copy).
func (f *Frame) Bytes() []byte { return f.buf }

// Clone returns an owned deep copy.
func (f *Frame) Clone() *Frame {
	c := *f
	c.buf = append([]byte(nil), f.buf...)
	return &c
}

// Retain returns a new handle owning one reference to the shared bytes.
func (f *Frame) Retain() *Frame {
	c := *f
	return &c
}

// Hold is Retain, as bus.Sealed spells it.
func (f *Frame) Hold() bus.Sealed { return f.Retain() }

// Release gives the handle's reference up.
func (f *Frame) Release() {}

// SetHops mutates in place; it neither retains nor launders the frame.
func (f *Frame) SetHops(n int) {}

// Package bus is a minimal stand-in for jamm/internal/bus: the
// framealias analyzer matches the Sealed type by package name.
package bus

// Sealed is an encoded batch handed out borrowed; Hold returns a
// counted reference to keep.
type Sealed interface {
	Hold() Sealed
}

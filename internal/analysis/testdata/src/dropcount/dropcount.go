// Package dropcount is the golden input for the dropcount analyzer:
// its package name puts it under the drop-accounting contract.
package dropcount

type stats struct{ drops int }

type q struct {
	ch    chan int
	buf   []int
	stats stats
}

// push is a bounded admit: false means the value was refused.
func (s *q) push(v int) bool {
	if len(s.buf) >= cap(s.buf) {
		return false
	}
	s.buf = append(s.buf, v)
	return true
}

func (s *q) sendUncounted(v int) {
	select {
	case s.ch <- v:
	default: // want `non-blocking send drops records on the default path without incrementing a drop counter`
	}
}

func (s *q) sendCounted(v int) {
	select {
	case s.ch <- v:
	default:
		s.stats.drops++
	}
}

// signal loses at most a wake token, never data: exempt.
func (s *q) signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (s *q) admitUncounted(v int) {
	if !s.push(v) { // want `refused push admit discards its records without incrementing a drop counter`
		_ = v
	}
}

func (s *q) admitCounted(v int) {
	if ok := s.push(v); !ok {
		s.stats.drops++
	}
}

// boundQ stands in for the site's shared record queue (internal/boundq):
// a generic type whose exported Push reports acceptance. Wire
// subscriptions and replica links both shed through this shape.
type boundQ[T any] struct {
	items  []T
	budget int
}

func (b *boundQ[T]) Push(it T) bool {
	if len(b.items) >= b.budget {
		return false
	}
	b.items = append(b.items, it)
	return true
}

type link struct {
	q    *boundQ[int]
	shed int
}

func (l *link) forwardUncounted(v int) {
	if !l.q.Push(v) { // want `refused Push admit discards its records without incrementing a drop counter`
		_ = v
	}
}

func (l *link) forwardCounted(v int) {
	if !l.q.Push(v) {
		l.shed++
	}
}

// sendAnnotated's shed is accounted by the caller's aggregate counter:
// the annotation names it, so the path stays silent.
func (s *q) sendAnnotated(v int) {
	select {
	case s.ch <- v:
	default: //jamm:sheds-accounted q.stats.drops
	}
}

// A malformed annotation is itself a finding (hygiene check), so
// blanket suppressions cannot accumulate.
var hygieneProbe = 1 //jamm:frob misapplied verb // want `unknown //jamm: annotation verb "frob"`

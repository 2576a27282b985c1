// Package borrowshare is the golden input for the borrowshare
// analyzer: batch slices are borrowed and must not outlive the call.
package borrowshare

type Record struct{ Host string }

var global []Record

type sink struct {
	last []Record
	ch   chan []Record
}

func (s *sink) PublishBatch(recs []Record) {
	s.last = recs // want `borrowed slice "recs" is stored into s.last and outlives the call`
}

// foldBatch receives a borrowed batch on every bus delivery.
func (s *sink) foldBatch(recs []Record) {
	s.ch <- recs // want `borrowed slice "recs" is sent on a channel and outlives the call`
}

func (s *sink) Forward(recs []Record) {
	go func() { // want `borrowed slice "recs" is captured by a goroutine and outlives the call`
		_ = recs
	}()
}

// AppendBatch rebinds the parameter to an owned copy first: stores
// after the rebind are safe.
func (s *sink) AppendBatch(recs []Record) {
	recs = append([]Record(nil), recs...)
	s.last = recs
}

// TakeBatch only reads elements (value copies) and passes the slice on
// — the callee borrows under the same contract. Neither retains.
func (s *sink) TakeBatch(recs []Record) {
	for i := range recs {
		s.process(recs[i])
	}
	s.consume(recs)
}

func (s *sink) process(r Record)      {}
func (s *sink) consume(recs []Record) {}
func (s *sink) helper(recs []Record)  { s.last = recs } // not borrowed: plain helper, caller owns

// PublishReplicaBatch's retention is a deliberate, justified exception.
func (s *sink) PublishReplicaBatch(recs []Record) {
	s.last = recs //jamm:borrow-ok single-threaded test fixture; caller discards the batch after the call
}

func TapBatch(fn func(recs []Record)) {}

// handle is registered below, so its slice parameter is borrowed.
func handle(recs []Record) {
	global = recs // want `borrowed slice "recs" is stored into global and outlives the call`
}

func SubscribeSealed(fn func(recs []Record, sealed any)) {}

func register() {
	TapBatch(handle)
	SubscribeSealed(func(recs []Record, _ any) {
		global = recs // want `borrowed slice "recs" is stored into global and outlives the call`
	})
}

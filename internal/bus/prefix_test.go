package bus

import (
	"sync"
	"testing"

	"jamm/internal/ulm"
)

// Prefix subscriptions receive exactly the topics under their prefix,
// across shards, and count as consumers for them.
func TestSubscribePrefix(t *testing.T) {
	b := New(Options{})
	var mu sync.Mutex
	got := map[string]int{}
	sub := b.SubscribeBatchTopicsPrefix("_agg/", nil, func(topic string, recs []ulm.Record) {
		mu.Lock()
		got[topic] += len(recs)
		mu.Unlock()
	})

	rec := []ulm.Record{{Event: "E"}}
	b.PublishBatch("_agg/count", rec)
	b.PublishBatch("_agg/topk", rec)
	b.PublishBatch("_agg/topk", rec)
	b.PublishBatch("cpu", rec)     // outside the prefix
	b.PublishBatch("_aggily", rec) // shares bytes, not the prefix

	mu.Lock()
	if got["_agg/count"] != 1 || got["_agg/topk"] != 2 || len(got) != 2 {
		mu.Unlock()
		t.Fatalf("delivered = %v", got)
	}
	mu.Unlock()

	if !b.NeedsRecords("_agg/count") || !b.NeedsRecords("_agg/anything") {
		t.Fatal("prefix subscription invisible to NeedsRecords")
	}
	if b.NeedsRecords("cpu") {
		t.Fatal("non-matching topic reports consumers")
	}

	sub.Cancel()
	b.PublishBatch("_agg/count", rec)
	mu.Lock()
	defer mu.Unlock()
	if got["_agg/count"] != 1 {
		t.Fatal("delivery after cancel")
	}
	if b.NeedsRecords("_agg/count") {
		t.Fatal("cancelled prefix subscription still counts")
	}
}

package ring

import (
	"fmt"
	"slices"
	"testing"
)

func topics(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("cpu@h%d.lbl.gov", i)
	}
	return out
}

func TestDeterministicPlacement(t *testing.T) {
	a := New([]string{"gw1:9100", "gw2:9100", "gw3:9100"}, 64)
	b := New([]string{"gw3:9100", "gw1:9100", "gw2:9100", "gw2:9100"}, 64) // permuted + duplicate
	for _, topic := range topics(500) {
		if a.Owner(topic) != b.Owner(topic) {
			t.Fatalf("placement differs for %q: %q vs %q", topic, a.Owner(topic), b.Owner(topic))
		}
	}
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len = %d/%d, want 3", a.Len(), b.Len())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if New(nil, 0).Owner("cpu@h1") != "" {
		t.Fatal("empty ring owns a topic")
	}
	one := New([]string{"gw1:9100"}, 0)
	for _, topic := range topics(50) {
		if one.Owner(topic) != "gw1:9100" {
			t.Fatal("single-node ring misroutes")
		}
	}
	if !one.Contains("gw1:9100") || one.Contains("gw2:9100") {
		t.Fatal("Contains broken")
	}
}

func TestBalance(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	r := New(nodes, 0)
	counts := make(map[string]int)
	const n = 8000
	for _, topic := range topics(n) {
		counts[r.Owner(topic)]++
	}
	for _, node := range nodes {
		share := float64(counts[node]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of topics: %v", node, 100*share, counts)
		}
	}
}

func TestMinimalMovementOnMembershipChange(t *testing.T) {
	old := New([]string{"a:1", "b:1", "c:1"}, 0)
	grown := old.With("d:1")
	moved := 0
	const n = 4000
	for _, topic := range topics(n) {
		was, now := old.Owner(topic), grown.Owner(topic)
		if was != now {
			moved++
			// Topics only ever move TO the new node.
			if now != "d:1" {
				t.Fatalf("topic %q moved %q -> %q, not to the new node", topic, was, now)
			}
		}
	}
	if moved == 0 || float64(moved)/n > 0.5 {
		t.Fatalf("movement = %d/%d topics, want ~1/4", moved, n)
	}
	// Removing the node restores the original placement exactly.
	back := grown.Without("d:1")
	for _, topic := range topics(200) {
		if back.Owner(topic) != old.Owner(topic) {
			t.Fatal("Without did not restore placement")
		}
	}
}

func TestOwnersDistinctPreference(t *testing.T) {
	r := New([]string{"a:1", "b:1", "c:1"}, 0)
	for _, topic := range topics(100) {
		owners := r.Owners(topic, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%q, 2) = %v", topic, owners)
		}
		if owners[0] != r.Owner(topic) {
			t.Fatalf("Owners[0] %q != Owner %q", owners[0], r.Owner(topic))
		}
	}
	if got := r.Owners("x", 9); len(got) != 3 {
		t.Fatalf("Owners capped at membership: %v", got)
	}
	if r.Owners("x", 0) != nil {
		t.Fatal("Owners(0) non-nil")
	}
	// AppendOwners leaves what dst already holds alone, a name it
	// appends too.
	prefix := r.Owner("x")
	if got, want := r.AppendOwners([]string{prefix}, "x", 2), append([]string{prefix}, r.Owners("x", 2)...); !slices.Equal(got, want) {
		t.Fatalf("AppendOwners after %q = %v, want %v", prefix, got, want)
	}
}

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"jamm/internal/benchkit"
)

// programSpec is BENCHMARK.json as this program's own tables say it
// should read.
func programSpec() *benchkit.Spec {
	s := &benchkit.Spec{
		Command:    []string{"bash", "cmd/jammbench/run.sh"},
		Paths:      []string{"cmd/jammbench", "internal/benchkit"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, benchkit.SpecLoad{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		if specEndToEnd(m) {
			s.EndToEnd = append(s.EndToEnd, benchkit.SpecMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
		}
	}
	for _, m := range specPerLayer() {
		s.PerLayer = append(s.PerLayer, benchkit.SpecLayer{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return s
}

// BENCHMARK.json is kept by hand-free regeneration: this test fails when
// the file and the program's tables disagree, and rewrites the file when
// run with JAMMBENCH_WRITE_SPEC=1.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	const path = "../../BENCHMARK.json"
	spec := programSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("JAMMBENCH_WRITE_SPEC") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the program's tables; regenerate it with\n  JAMMBENCH_WRITE_SPEC=1 go test -run TestBenchmarkJSONMatchesProgram ./cmd/jammbench")
	}
	if _, err := benchkit.LoadSpec(path); err != nil {
		t.Fatal(err)
	}
}

// The README is the glossary: every workload and every metric the
// program can print must be named in it.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not describe workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not describe metric %s", m.Name)
		}
	}
}

// Every value a pass can set is a metric the tables know, so nothing is
// measured and then silently not printed.
func TestWorkloadsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Only != "" && findWorkload(m.Only) == nil {
			t.Errorf("metric %s is defined on unknown workload %q", m.Name, m.Only)
		}
	}
	for _, w := range workloads {
		if benchkit.SeqMod%w.RunLen != 0 || creditWindow%w.RunLen != 0 {
			t.Errorf("%s: run_len %d must divide the SEQ modulus and the credit window", w.Name, w.RunLen)
		}
		if w.Fields < 1 || w.Sensors < 1 || w.Rate <= 0 {
			t.Errorf("%s: malformed parameters %+v", w.Name, w)
		}
	}
}

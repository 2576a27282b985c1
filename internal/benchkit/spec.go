package benchkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// Spec is BENCHMARK.json: the contract between this benchmark and
// whatever runs it. The struct has exactly the file's keys; Load
// refuses any other.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecLoad   `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecLayer  `json:"per_layer"`
}

// SpecLoad names one workload and says why it exists.
type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is an end-to-end metric: Bound is the share of the
// parent's median by which it may worsen before a change is rejected.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// SpecLayer is a per-layer metric; it carries no bound.
type SpecLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	specName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	specUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	specPath = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// LoadSpec reads and validates a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// ParseSpec decodes and validates the bytes of a BENCHMARK.json.
func ParseSpec(data []byte) (*Spec, error) {
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("benchmark spec: %d bytes, over the 64 KiB limit", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("benchmark spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Marshal renders the spec as the indented JSON kept in the repo.
func (s *Spec) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Validate checks the spec against the limits its consumer enforces,
// so a spec that would be refused there fails here first.
func (s *Spec) Validate() error {
	bad := func(format string, a ...any) error {
		return fmt.Errorf("benchmark spec: "+format, a...)
	}
	if n := len(s.Command); n < 1 || n > 32 {
		return bad("command has %d strings, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return bad("command string %q is too long, absolute, or leaves the repo", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return bad("%d paths, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !specPath.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return bad("path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return bad("run_seconds %d, want 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !specName.MatchString(n) {
			return bad("name %q", n)
		}
		if seen[n] {
			return bad("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !specUnit.MatchString(unit) || (better != "lower" && better != "higher") {
			return bad("metric %s: unit %q better %q", n, unit, better)
		}
		return nil
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return bad("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return bad("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return bad("%d end_to_end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return bad("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return bad("end_to_end lacks setup_s (unit s, better lower)")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return bad("%d per_layer metrics, want 1..128", n)
	}
	for _, m := range s.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

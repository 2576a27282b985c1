// Command jammbench is the one benchmark of the JAMM event plane: four
// fixed workloads driven in-process over loopback TCP through gateways
// wired as cmd/gatewayd wires itself, every output checked, every
// metric printed by name and unit. BENCHMARK.json at the repository
// root is its contract; README.md beside this file is its glossary.
//
//	go run ./cmd/jammbench                      # all workloads, untraced then traced
//	go run ./cmd/jammbench -workload relay-chain -trace 0
//	go run ./cmd/jammbench -selfcheck           # run twice, compare against the bounds
//	go run ./cmd/jammbench -trace 0 -json       # the results table's source
//
// The untraced pass (-trace 0) yields the end-to-end metrics. The
// traced pass (-trace 1) re-runs each workload with harness spans,
// taps and 1-in-16 tracer sampling, runs the per-layer ladder and (on
// relay-chain) the hop and run-length sweeps, and prints the
// attribution table; when both passes run, nothing end-to-end is taken
// from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// scratchRoot is where a run keeps its archives: inside the working
// directory, never in the system's temp directory.
const scratchRoot = ".bench_build/jammbench"

// progress is where phase lines and tables go: standard output, or
// standard error when standard output carries the -json document.
var progress io.Writer = os.Stdout

func sayf(format string, a ...any) { fmt.Fprintf(progress, format, a...) }

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same records")
	seconds := flag.Int("seconds", runSeconds, "measured seconds per untraced pass, in 1s windows: 5 windowed, the rest (never fewer than 5) paced")
	trace := flag.String("trace", "both", "0 = untraced pass only, 1 = traced pass only, both = one after the other")
	asJSON := flag.Bool("json", false, "print one JSON document instead of tables")
	selfcheck := flag.Bool("selfcheck", false, "run each workload's untraced pass twice and fail if any end-to-end metric differs by more than its bound")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatalf("-trace %q: want 0, 1 or both", *trace)
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		run = []workload{*w}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := hostInfo()
	if *asJSON {
		progress = os.Stderr
	}
	sayf("jammbench: %s, nproc %d, GOMAXPROCS %d, %s, loopback TCP, seed %d\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.Go, *seed)

	if *selfcheck {
		os.Exit(selfCheck(run, *seed, *seconds))
	}

	doc := document{Host: host, Seed: *seed, Seconds: *seconds, Claim: nil}
	ok := true
	var last *report
	for i := range run {
		w := &run[i]
		rep := &report{Workload: w.Name, Why: w.Why, Correct: true, Metrics: map[string]value{}, From: map[string]string{}}
		var untraced *runResult
		if *trace != "1" {
			sayf("\n== %s (untraced) ==\n", w.Name)
			untraced = runWorkload(w, optsFor(*seconds, *seed, false))
			rep.add(untraced, endToEnd)
			printMetrics("end-to-end", untraced, endToEnd, w.Name)
		}
		if *trace != "0" {
			sayf("\n== %s (traced) ==\n", w.Name)
			traced := runTraced(w, *seed, *seconds, untraced, *traceOut)
			// End-to-end values come from the untraced pass whenever there
			// is one; alone, the traced pass reports BENCHMARK.json's whole
			// per_layer list, which holds seven of them.
			defs := perLayer
			if untraced == nil {
				defs = specPerLayer()
			}
			rep.add(traced, defs)
			printMetrics("per-layer", traced, defs, w.Name)
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "jammbench: %s: %s\n", w.Name, e)
		}
		ok = ok && rep.Correct
		doc.Results = append(doc.Results, rep)
		last = rep
	}
	switch {
	case *asJSON:
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(out))
	case *name != "":
		// The line whatever drives this benchmark reads: exactly these
		// keys, last on standard output; after the untraced pass the
		// metrics of BENCHMARK.json's end_to_end list, after the traced
		// pass those of its per_layer list.
		for _, d := range endToEnd {
			if *trace == "0" && !specEndToEnd(d) {
				delete(last.Metrics, d.Name)
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{last.Correct, max(last.Attempted, 1), last.Failed, last.Metrics})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "jammbench: "+format+"\n", a...)
	os.Exit(2)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's results as they are printed.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]value  `json:"metrics"`
	From      map[string]string `json:"from,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

// add folds one pass's values for the given metrics into the report. A
// metric the pass has no value for is an error when it is defined on
// this workload, and reported as 0 when it is not.
func (r *report) add(res *runResult, defs []metricDef) {
	r.Attempted += res.attempted
	r.Failed += res.failed
	r.Errors = append(r.Errors, res.errs...)
	for _, d := range defs {
		v, have := res.values[d.Name]
		if !have && len(res.errs) == 0 && (d.Only == "" || d.Only == r.Workload) && !res.traced {
			r.Errors = append(r.Errors, d.Name+": not measured")
		}
		r.Metrics[d.Name] = value{v, d.Unit}
		if from := res.counts[d.Name]; from != "" {
			r.From[d.Name] = from
		}
	}
	r.Correct = r.Correct && len(r.Errors) == 0 && r.Failed == 0
}

// document is the -json output: everything needed to put a row in the
// results table, or a block in BASELINE.json.
type document struct {
	Host    host      `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds int       `json:"seconds"`
	Claim   *string   `json:"claim"` // this benchmark claims no gain
	Results []*report `json:"results"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

func hostInfo() host {
	h := host{CPU: "unknown CPU", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown", Transport: "loopback TCP, one process"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// printMetrics prints one table of metrics: name, value, unit, what the
// value was computed from, and the bound where there is one.
func printMetrics(title string, res *runResult, defs []metricDef, workload string) {
	sayf("  %s\n", title)
	for _, d := range defs {
		if d.Only != "" && d.Only != workload {
			continue
		}
		v, have := res.values[d.Name]
		if !have {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			sign := "+"
			if d.Better == "higher" {
				sign = "-"
			}
			bound = fmt.Sprintf("  bound %s%g%%", sign, d.Bound*100)
			if d.Name == "loss_ratio" {
				bound = fmt.Sprintf("  bound +%g absolute", d.Bound)
			}
		}
		sayf("    %-42s %16.4f %-6s %s%s\n", d.Name, v, d.Unit, res.counts[d.Name], bound)
	}
}

// selfCheck runs every workload's untraced pass twice, back to back in
// this process, and compares each end-to-end metric against its bound:
// the tool for showing that two runs of the same code agree, and the
// evidence for demoting a metric that cannot.
func selfCheck(run []workload, seed uint64, seconds int) int {
	bad := 0
	for i := range run {
		w := &run[i]
		sayf("\n== %s (selfcheck) ==\n", w.Name)
		a := runWorkload(w, optsFor(seconds, seed, false))
		b := runWorkload(w, optsFor(seconds, seed, false))
		for _, res := range []*runResult{a, b} {
			for _, e := range res.errs {
				sayf("  ! %s\n", e)
				bad++
			}
		}
		sayf("  %-30s %16s %16s %9s %9s\n", "metric", "first", "second", "diff", "bound")
		for _, d := range endToEnd {
			if d.Only != "" && d.Only != w.Name {
				continue
			}
			x, y := a.values[d.Name], b.values[d.Name]
			// Worse-ness of the second run relative to the first, as a
			// share of the first; loss is held to an absolute bound.
			diff := (y - x) / x
			if d.Better == "higher" {
				diff = -diff
			}
			if d.Name == "loss_ratio" {
				diff = y - x
			}
			if diff < 0 {
				diff = -diff // either run may be the worse one
			}
			bound, verdict := fmt.Sprintf("%8.2f%%", d.Bound*100), ""
			switch {
			case d.Bound == 0:
				bound = "     none"
			case diff > d.Bound:
				verdict = "  EXCEEDS"
				bad++
			}
			sayf("  %-30s %16.4f %16.4f %8.2f%% %s%s\n", d.Name, x, y, diff*100, bound, verdict)
		}
	}
	if bad > 0 {
		sayf("\nselfcheck: %d violations\n", bad)
		return 1
	}
	sayf("\nselfcheck: every bounded end-to-end metric agrees within its bound\n")
	return 0
}

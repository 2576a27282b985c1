// Package analysis is JAMM's correctness-tooling layer: a suite of
// static analyzers that machine-enforce the event plane's safety
// contracts — conventions the compiler cannot check and that, per the
// Zhang/Freschl/Schopf monitoring study, fail silently under load
// exactly where accounting is incomplete:
//
//   - dropcount: any code path that sheds records in a drop-accounting
//     package must increment a stats counter in the same function, or
//     carry a //jamm:sheds-accounted annotation naming the counter.
//   - borrowshare: a function receiving a borrowed []Record batch
//     (PublishBatch, AppendBatch, TapBatch callbacks, ...) must not
//     retain the parameter slice — no field/map/global stores, channel
//     sends, or goroutine captures without an explicit copy.
//   - lockhold: no net.Conn I/O, blocking channel operation, or
//     user-callback invocation while a sync.Mutex/RWMutex acquired in
//     the same function is held.
//   - framealias: a gateway.Frame parameter (which borrows its buffer)
//     must not outlive the call without Retain() or Clone(), and the
//     handle Retain() returns must not be discarded.
//
// The suite is a self-contained reimplementation of the golang.org/x/
// tools go/analysis pattern on the standard library alone (go/ast,
// go/types, export data via `go list -export`), because this build
// environment vendors no third-party modules. The shapes mirror
// go/analysis deliberately — Analyzer{Name, Doc, Run}, Pass, Diagnostic,
// and an analysistest-style golden runner — so a future migration to
// the real framework is mechanical.
//
// Deliberate exceptions are annotated in source with the //jamm:
// grammar (see Annotation); every annotation must name its counter or
// carry a justification — a bare //jamm: comment is itself a finding,
// so blanket suppressions cannot accumulate.
//
// Run the suite with `go run ./cmd/jammlint ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run executes the check over one package, reporting findings via
	// pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package,
// mirroring go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// annotations indexes //jamm: comments by file and line.
	annotations map[string]map[int]Annotation

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos unless a matching //jamm: annotation
// suppresses it (same line or the line immediately above). Suppression
// is per analyzer: only the analyzer's own annotation verb applies.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a //jamm: annotation for this analyzer
// covers the line (the annotation sits on the flagged line or the one
// above it, the same placement convention as //nolint).
func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.annotations[pos.Filename]
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		if ann, ok := lines[ln]; ok && ann.Suppresses(p.Analyzer.Name) && ann.Arg != "" {
			return true
		}
	}
	return false
}

// Annotation is one parsed //jamm: source comment. The grammar is
//
//	//jamm:<verb> <argument...>
//
// where verb names the contract being excepted and the argument is
// mandatory — the counter that accounts the shed records for
// sheds-accounted, a one-line justification for the *-ok verbs:
//
//	//jamm:sheds-accounted <counter>   dropcount: records shed on this
//	                                   path are counted in <counter>
//	//jamm:borrow-ok <why>             borrowshare exception
//	//jamm:lock-ok <why>               lockhold exception
//	//jamm:frame-ok <why>              framealias exception
type Annotation struct {
	Verb string
	Arg  string
	Pos  token.Position
}

// annotationVerbs maps each annotation verb to the analyzer it
// suppresses.
var annotationVerbs = map[string]string{
	"sheds-accounted": "dropcount",
	"borrow-ok":       "borrowshare",
	"lock-ok":         "lockhold",
	"frame-ok":        "framealias",
}

// Suppresses reports whether the annotation's verb belongs to the
// named analyzer.
func (a Annotation) Suppresses(analyzer string) bool {
	return annotationVerbs[a.Verb] == analyzer
}

// parseAnnotations indexes every //jamm: comment of the files by
// filename and line. Malformed annotations (unknown verb, missing
// argument) are still indexed — with Arg possibly empty — so the
// hygiene check can flag them and suppression can refuse them.
func parseAnnotations(fset *token.FileSet, files []*ast.File) map[string]map[int]Annotation {
	out := make(map[string]map[int]Annotation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//jamm:")
				if !ok {
					continue
				}
				verb, arg, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]Annotation)
					out[pos.Filename] = m
				}
				m[pos.Line] = Annotation{Verb: verb, Arg: strings.TrimSpace(arg), Pos: pos}
			}
		}
	}
	return out
}

// annotationHygiene is the implicit fifth check: every //jamm:
// annotation must use a known verb and carry its argument. A bare
// annotation would otherwise be a blanket suppression — the exact
// failure mode the suite exists to prevent.
func annotationHygiene(pass *Pass) {
	for _, lines := range pass.annotations {
		for _, ann := range lines {
			if _, known := annotationVerbs[ann.Verb]; !known {
				*pass.diags = append(*pass.diags, Diagnostic{
					Analyzer: "jammlint",
					Pos:      ann.Pos,
					Message:  fmt.Sprintf("unknown //jamm: annotation verb %q (known: sheds-accounted, borrow-ok, lock-ok, frame-ok)", ann.Verb),
				})
				continue
			}
			if ann.Arg == "" {
				*pass.diags = append(*pass.diags, Diagnostic{
					Analyzer: "jammlint",
					Pos:      ann.Pos,
					Message:  fmt.Sprintf("//jamm:%s needs an argument: the accounting counter (sheds-accounted) or a one-line justification", ann.Verb),
				})
			}
		}
	}
}

// Check runs the analyzers over the loaded packages and returns the
// findings sorted by position. Annotation hygiene runs once per
// package regardless of which analyzers were selected.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		anns := parseAnnotations(pkg.Fset, pkg.Files)
		hpass := &Pass{Fset: pkg.Fset, annotations: anns, diags: &diags}
		annotationHygiene(hpass)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				PkgPath:     pkg.PkgPath,
				TypesInfo:   pkg.Info,
				annotations: anns,
				diags:       &diags,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{DropCount, BorrowShare, LockHold, FrameAlias}
}

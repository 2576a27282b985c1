package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// This package is the only place the site opens, accepts or dials a
// socket: every other non-test file (cmd/jammbench aside — the
// benchmark is frozen and wires its own harness) must come through
// Listen, Serve and Dial, or the seam a simulated network would replace
// has a hole in it.
func TestNoSocketsOutsideTransport(t *testing.T) {
	const root = "../.."
	banned := func(pkg, name string) bool {
		switch pkg {
		case "net":
			return strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Dial")
		case "tls":
			return strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Dial") || name == "NewListener"
		}
		// (*http.Server).ListenAndServe too, whatever it is called on;
		// Accept is the accept loop this package owns.
		return strings.HasPrefix(name, "ListenAndServe") || name == "Accept"
	}
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+"/"))
		if d.IsDir() {
			if rel == "cmd/jammbench" || rel == "internal/transport" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg := ""
			if id, ok := sel.X.(*ast.Ident); ok {
				pkg = id.Name
			}
			if banned(pkg, sel.Sel.Name) {
				t.Errorf("%s: %s.%s — open, accept and dial sockets through internal/transport", fset.Position(sel.Pos()), pkg, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d files from %s: the walk is not seeing the repository", files, root)
	}
}

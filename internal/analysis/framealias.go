package analysis

import (
	"go/ast"
	"go/types"
)

// FrameAlias enforces the frame ownership contract: a gateway.Frame
// handed to a function (parameter of type Frame or *Frame) is borrowed
// — the producing reader releases its buffer to a pool after the call —
// so the frame may not outlive the call without Retain() (a counted
// reference to the shared bytes) or Clone() (a private copy). The same
// goes for a frame arriving as a bus.Sealed — the sealed parameter of a
// bus.SubscribeSealed callback, or what s.(*gateway.Frame) unwraps from
// it — which is kept with Hold(). Flagged retentions:
//
//   - storing the frame (or a composite containing it) into a field,
//     map/slice element, dereference, or package-level variable,
//   - sending it on a channel,
//   - capturing it in a go statement,
//   - storing the raw f.Bytes() alias (append(dst, f.Bytes()...) and
//     copy(dst, f.Bytes()) copy the bytes and stay silent).
//
// A value rooted in f.Retain(), f.Clone() or s.Hold() is owned and always safe;
// other method calls on the frame (SetHops, Records, Count access)
// neither retain nor launder it. The reference Retain takes lives in
// the handle it returns, so a Retain() whose result is thrown away can
// never be released: that is a finding too, on any frame, parameter or
// not. Deliberate exceptions carry //jamm:frame-ok <why>.
//
// The Frame type is matched structurally — a type named Frame declared
// in a package named gateway — so the analysistest stub package
// exercises the same code path as the real one.
var FrameAlias = &Analyzer{
	Name: "framealias",
	Doc:  "report borrowed gateway.Frame parameters (or their Bytes() alias) kept past the call without Retain() or Clone(), and Retain() results thrown away",
	Run:  runFrameAlias,
}

func runFrameAlias(pass *Pass) error {
	for _, file := range pass.Files {
		forEachFunc(file, func(fn funcBody) {
			params := paramObjects(pass.TypesInfo, fn, func(t types.Type) bool {
				return isNamedType(t, "gateway", "Frame") || isNamedType(t, "bus", "Sealed")
			})
			for _, p := range params {
				checkFrameParam(pass, fn, p)
			}
		})
		ast.Inspect(file, func(n ast.Node) bool {
			var x ast.Expr
			switch n := n.(type) {
			case *ast.ExprStmt:
				x = n.X
			case *ast.AssignStmt:
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					x = n.Rhs[0]
				}
			}
			if isFrameOwningCall(pass.TypesInfo, x, "Retain") {
				pass.Report(n.Pos(), "the handle Retain() returns is discarded; the reference it holds can never be released — keep the handle and Release it, or annotate //jamm:frame-ok <why>")
			}
			return true
		})
	}
	return nil
}

// isFrameOwningCall reports whether expr is a call of the named
// ownership-conferring method on a gateway.Frame.
func isFrameOwningCall(info *types.Info, expr ast.Expr, method string) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && tv.Type != nil && isNamedType(tv.Type, "gateway", "Frame")
}

func checkFrameParam(pass *Pass, fn funcBody, p types.Object) {
	ownStmts(fn.body, func(stmt ast.Stmt) {
		switch stmt := stmt.(type) {
		case *ast.AssignStmt:
			if len(stmt.Lhs) != len(stmt.Rhs) {
				return
			}
			for i, lhs := range stmt.Lhs {
				if !isNonLocalLHS(pass.TypesInfo, lhs) {
					continue
				}
				if frameEscapes(pass.TypesInfo, stmt.Rhs[i], p, false) {
					pass.Report(stmt.Pos(),
						"borrowed frame %q is stored into %s without Retain() or Clone(); its buffer is released after the call — retain it or annotate //jamm:frame-ok <why>",
						p.Name(), selectorString(lhs))
				}
			}
		case *ast.SendStmt:
			if frameEscapes(pass.TypesInfo, stmt.Value, p, false) {
				pass.Report(stmt.Pos(),
					"borrowed frame %q is sent on a channel without Retain() or Clone(); its buffer is released after the call — retain it or annotate //jamm:frame-ok <why>",
					p.Name())
			}
		case *ast.GoStmt:
			if frameEscapesNode(pass.TypesInfo, stmt.Call, p) {
				pass.Report(stmt.Pos(),
					"borrowed frame %q is captured by a goroutine without Retain() or Clone(); its buffer is released after the call — retain it or annotate //jamm:frame-ok <why>",
					p.Name())
			}
		}
	})
}

// frameEscapes reports whether expr lets the borrowed frame obj (or
// its Bytes() buffer alias) escape. insideCopy is true under append/
// copy arguments, where byte slices are copied rather than retained.
func frameEscapes(info *types.Info, expr ast.Expr, obj types.Object, insideCopy bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] == obj
	case *ast.UnaryExpr:
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.StarExpr:
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.TypeAssertExpr:
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if frameEscapes(info, el, obj, insideCopy) {
				return true
			}
		}
		return false
	case *ast.SliceExpr:
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.IndexExpr:
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.SelectorExpr:
		// Selecting a scalar field (f.Sensor, f.Count) copies a value
		// that shares nothing with the buffer; only a selection whose
		// result is itself a frame or a byte slice can carry the alias.
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			if !aliasType(tv.Type) {
				return false
			}
		}
		return frameEscapes(info, e.X, obj, insideCopy)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok &&
			usesObjectAll(info, sel.X, obj) {
			switch sel.Sel.Name {
			case "Retain", "Clone", "Hold":
				return false // an owned reference or copy: safe everywhere
			case "Bytes":
				return !insideCopy // raw buffer alias
			default:
				return false // SetHops, Records, ...: no retention
			}
		}
		// append/copy copy their element arguments; len/cap/string read
		// or copy without retaining.
		name := calleeName(e)
		copying := insideCopy || name == "append" || name == "copy" ||
			name == "len" || name == "cap" || name == "string"
		for _, a := range e.Args {
			if frameEscapes(info, a, obj, copying) {
				return true
			}
		}
		return false
	}
	return false
}

// aliasType reports whether a selected value's type can carry the
// frame's buffer alias: the frame itself, a pointer to it, or a byte
// slice (the buf field / Bytes() result).
func aliasType(t types.Type) bool {
	if isNamedType(t, "gateway", "Frame") {
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := s.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return true
		}
	}
	return false
}

// frameEscapesNode is frameEscapes over an arbitrary subtree (a go
// statement's call and closure body): any use of obj that is not a
// Retain(), Clone() or Hold() receiver escapes.
func frameEscapesNode(info *types.Info, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
				usesObjectAll(info, sel.X, obj) && (sel.Sel.Name == "Retain" || sel.Sel.Name == "Clone" || sel.Sel.Name == "Hold") {
				// The receiver is laundered; arguments still scan.
				for _, a := range call.Args {
					if frameEscapesNode(info, a, obj) {
						found = true
					}
				}
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

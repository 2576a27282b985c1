package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BorrowShare enforces the batch ownership contract: record slices are
// always borrowed, never retained (bus package doc). A function that
// receives a borrowed slice — a PublishBatch/AppendBatch-style
// implementation, a callback registered through TapBatch/SubscribeBatch/
// SubscribeSealed/FollowBatch, or any function whose doc comment says its slice is
// borrowed — must not let the parameter slice outlive the call:
//
//   - no store into a struct field, map/slice element, dereference, or
//     package-level variable,
//   - no channel send carrying it,
//   - no capture by a go statement,
//
// unless the parameter was first rebound to a copy (p = append(nil,
// p...)-style) or the site carries //jamm:borrow-ok <why>. Passing the
// slice on to another call is fine — the callee borrows it under the
// same contract — and append(dst, p...) copies elements, so both stay
// silent.
var BorrowShare = &Analyzer{
	Name: "borrowshare",
	Doc:  "report borrowed []Record parameters retained past the call (field/map/global stores, channel sends, goroutine captures)",
	Run:  runBorrowShare,
}

// borrowedFuncNames are the method names whose slice parameters are
// borrowed by API contract, wherever they are implemented.
var borrowedFuncNames = map[string]bool{
	"PublishBatch":        true,
	"PublishReplicaBatch": true,
	"AppendBatch":         true,
	"TakeBatch":           true,
	"TakeTopicBatch":      true,
	"Forward":             true,
}

// borrowedCallbackRegs are the registration calls whose function-typed
// arguments receive borrowed slices on every invocation.
var borrowedCallbackRegs = map[string]bool{
	"TapBatch":             true,
	"SubscribeBatch":       true,
	"SubscribeBatchTopics": true,
	"SubscribeSealed":      true,
	"FollowBatch":          true,
	"SubscribeFramesFunc":  true,
	"ReplayBus":            true,
	// The wire client's stream callbacks: the records of one received
	// frame share an arena and a field slab, and the slice is reused for
	// the next frame.
	"SubscribeBatchStream": true,
	"SubscribeFrameStream": true,
	"HistoryStream":        true,
}

func runBorrowShare(pass *Pass) error {
	// Pre-pass: find declared functions whose NAME (not a literal) is
	// handed to a borrowing registration call, so methods registered as
	// b.TapBatch(topic, g.foldBatch) are covered too.
	registered := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !borrowedCallbackRegs[calleeName(call)] {
				return true
			}
			for _, arg := range call.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.Ident:
					if obj := pass.TypesInfo.Uses[arg]; obj != nil {
						registered[obj] = true
					}
				case *ast.SelectorExpr:
					if sel := pass.TypesInfo.Selections[arg]; sel != nil {
						registered[sel.Obj()] = true
					} else if obj := pass.TypesInfo.Uses[arg.Sel]; obj != nil {
						registered[obj] = true
					}
				}
			}
			return true
		})
	}

	for _, file := range pass.Files {
		// Literal callbacks: mark each FuncLit argument of a borrowing
		// registration call.
		borrowedLits := make(map[*ast.FuncLit]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !borrowedCallbackRegs[calleeName(call)] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					borrowedLits[lit] = true
				}
			}
			return true
		})
		forEachFunc(file, func(fn funcBody) {
			if !borrowsSlices(pass, fn, borrowedLits, registered) {
				return
			}
			params := paramObjects(pass.TypesInfo, fn, func(t types.Type) bool {
				_, ok := t.Underlying().(*types.Slice)
				return ok
			})
			for _, p := range params {
				checkBorrowedParam(pass, fn, p)
			}
		})
	}
	return nil
}

// borrowsSlices reports whether fn's slice parameters are borrowed:
// by method-name contract, by registration as a borrowing callback,
// or by its own doc comment saying so.
func borrowsSlices(pass *Pass, fn funcBody, lits map[*ast.FuncLit]bool, registered map[types.Object]bool) bool {
	if fn.decl != nil {
		if borrowedFuncNames[fn.name] {
			return true
		}
		if strings.Contains(strings.ToLower(fn.doc), "borrow") {
			return true
		}
		if obj := pass.TypesInfo.Defs[fn.decl.Name]; obj != nil && registered[obj] {
			return true
		}
		return false
	}
	// Function literal: borrowed iff registered as a borrowing callback.
	for lit := range lits {
		if lit.Type == fn.typ && lit.Body == fn.body {
			return true
		}
	}
	return false
}

// checkBorrowedParam flags every retention of the borrowed parameter
// object inside fn's own statements.
func checkBorrowedParam(pass *Pass, fn funcBody, p types.Object) {
	// A reassignment from a call (p = append([]T(nil), p...), p =
	// slices.Clone(p), ...) rebinds the name to owned memory: stores
	// after the earliest such rebind are safe.
	rebound := token.Pos(-1)
	ownStmts(fn.body, func(stmt ast.Stmt) {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return
		}
		for i, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != p {
				continue
			}
			if _, isCall := ast.Unparen(assign.Rhs[i]).(*ast.CallExpr); isCall {
				if rebound < 0 || assign.Pos() < rebound {
					rebound = assign.Pos()
				}
			}
		}
	})
	safe := func(pos token.Pos) bool { return rebound >= 0 && pos > rebound }

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
				if usesObject(pass.TypesInfo, stmt.Rhs[i], p) && !safe(stmt.Pos()) {
					pass.Report(stmt.Pos(),
						"borrowed slice %q is stored into %s and outlives the call; copy it first or annotate //jamm:borrow-ok <why>",
						p.Name(), selectorString(lhs))
				}
			}
		case *ast.SendStmt:
			if usesObject(pass.TypesInfo, stmt.Value, p) && !safe(stmt.Pos()) {
				pass.Report(stmt.Pos(),
					"borrowed slice %q is sent on a channel and outlives the call; copy it first or annotate //jamm:borrow-ok <why>",
					p.Name())
			}
		case *ast.GoStmt:
			if goStmtUses(pass.TypesInfo, stmt, p) && !safe(stmt.Pos()) {
				pass.Report(stmt.Pos(),
					"borrowed slice %q is captured by a goroutine and outlives the call; copy it first or annotate //jamm:borrow-ok <why>",
					p.Name())
			}
		}
	})
}

// goStmtUses reports whether the go statement's call — its arguments
// or a closure body — references obj.
func goStmtUses(info *types.Info, g *ast.GoStmt, obj types.Object) bool {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

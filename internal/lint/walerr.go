package lint

import (
	"go/ast"
	"go/types"
)

// WALErr enforces the durability half of §7: recovery replays only
// committed transactions, so the write-ahead rule — the commit record is
// durable before the new version becomes visible — is only as strong as
// the weakest ignored error. The analyzer targets calls to functions
// declared in a package named "wal" and methods of any interface named
// "Journal" (core's journaling hook) whose results include an error:
//
//   - a call whose error is not bound at all (a bare expression statement,
//     including under defer or go) is reported;
//   - for the durability-critical operations — LogCommit, Sync, Flush,
//     Close, Recover, Iterate, Checkpoint — even an explicit blank
//     assignment (`_ = log.LogCommit(vn)`) is reported: a failed force or
//     replay must change control flow, not just be visibly shrugged at.
//     Close is critical because Log.Close forces buffered records to
//     stable storage: blanking it discards the last fsync of the log's
//     lifetime.
var WALErr = &Analyzer{
	Name: "walerr",
	Doc:  "check that WAL and journal errors are consumed; commit forces and recovery may not even be blanked (§7)",
	Run:  runWALErr,
}

// walCritical are the operations whose error must reach a handler.
var walCritical = map[string]bool{
	"LogCommit":  true,
	"Sync":       true,
	"Flush":      true,
	"Close":      true,
	"Recover":    true,
	"Iterate":    true,
	"Checkpoint": true,
}

func runWALErr(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						checkDropped(pass, call)
					}
				case *ast.DeferStmt:
					checkDropped(pass, n.Call)
				case *ast.GoStmt:
					checkDropped(pass, n.Call)
				case *ast.AssignStmt:
					checkBlanked(pass, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkDropped reports a wal/journal call used as a statement, discarding
// an error result.
func checkDropped(pass *Pass, call *ast.CallExpr) {
	if name, ok := walCallWithError(pass.TypesInfo, call); ok {
		pass.Reportf(call.Pos(), "error from %s is silently dropped; the write-ahead rule is only as strong as its weakest ignored error (§7)", name)
	}
}

// checkBlanked reports `_ = <critical wal call>` and multi-assigns that
// blank the error position of a critical call.
func checkBlanked(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := walCallWithError(pass.TypesInfo, call)
	if !ok || !walCritical[shortName(name)] {
		return
	}
	checkBlankedError(pass, assign, call, name,
		"error from %s is blanked; a failed force or replay must be handled, not discarded (§7)")
}

// checkBlankedError locates the call's error result position(s) and reports
// format (with the call name) for each that is assigned to the blank
// identifier.
func checkBlankedError(pass *Pass, assign *ast.AssignStmt, call *ast.CallExpr, name, format string) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	if results.Len() == 1 {
		if isBlank(assign.Lhs[0]) {
			pass.Reportf(assign.Pos(), format, name)
		}
		return
	}
	if len(assign.Lhs) != results.Len() {
		return
	}
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		if isBlank(assign.Lhs[i]) {
			pass.Reportf(assign.Lhs[i].Pos(), format, name)
		}
	}
}

// walCallWithError reports whether call targets a wal-package function or
// Journal interface method that returns an error, and names it.
func walCallWithError(info *types.Info, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	var selExpr *ast.SelectorExpr
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		selExpr = fun
		obj = info.ObjectOf(fun.Sel)
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	default:
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !hasErrorResult(sig) {
		return "", false
	}
	if fn.Pkg().Name() == "wal" {
		return "wal." + fn.Name(), true
	}
	if selExpr != nil {
		if s, ok := info.Selections[selExpr]; ok {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); isIface && named.Obj().Name() == "Journal" {
					return "Journal." + fn.Name(), true
				}
			}
		}
	}
	return "", false
}

func hasErrorResult(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func shortName(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineLifecycle enforces the serving stack's goroutine ownership rule:
// every `go` statement in internal/server, internal/core and internal/wal
// (which spawn none today), internal/repl (the replication tail loop), and
// pkg/vnlclient must have a reachable join recorded where it is spawned,
// so Shutdown/Close can prove the process quiesced. A connection handler
// or worker that nobody joins is a leak: it outlives the drain, keeps
// sockets and sessions pinned, and turns "graceful shutdown" into "we
// stopped listening".
//
// A `go` statement passes when one of the following joins is visible:
//
//   - WaitGroup join: an `Add` call on a sync.WaitGroup lexically precedes
//     the go statement in the spawning function, and the spawned body
//     (a func literal, or a same-package function/method followed one
//     call level deep) calls `Done` on a sync.WaitGroup.
//   - Channel join: the spawned body sends on or closes a channel, and
//     the same variable or struct field is received from (<-ch, range,
//     or a select case) somewhere in the package.
//   - Context bound: the spawned body receives from a context's Done()
//     channel (directly or in a select), tying its lifetime to a
//     cancellation the owner controls.
//   - A `// detached: <why>` justification comment on the go statement's
//     line (or the line above) — the explicit, reviewable acknowledgment
//     that the goroutine is fire-and-forget by design.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutinelifecycle",
	Doc:  "check that every spawned goroutine in the serving stack has a reachable join (WaitGroup/channel/ctx-done) or a // detached: justification",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) error {
	if !inServingScope(pass,
		"repro/internal/server",
		"repro/internal/core",
		"repro/internal/wal",
		"repro/internal/repl",
		"repro/pkg/vnlclient",
	) {
		return nil
	}
	idx := indexFuncs(pass)
	recvs := packageChanReceives(pass)
	for _, file := range pass.Files {
		for _, fd := range fileFuncs(file) {
			checkGoStmts(pass, idx, recvs, file, fd)
		}
	}
	return nil
}

// checkGoStmts inspects every go statement in the function, including ones
// nested in closures (the closure's go statements still need joins; their
// spawning function for the WaitGroup-dominance test is the outermost
// declaration, which is where ownership is recorded).
func checkGoStmts(pass *Pass, idx funcIndex, recvs map[types.Object]bool, file *ast.File, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		line := pass.Fset.Position(gs.Pos()).Line
		if commentOnLine(pass.Fset, file, line, "detached:") {
			return true
		}
		if goStmtJoined(pass, idx, recvs, fd, gs) {
			return true
		}
		pass.Reportf(gs.Pos(), "goroutine has no reachable join: record a WaitGroup Add/Done pair, a channel the owner receives, a ctx-done bound, or a // detached: justification")
		return true
	})
}

// goStmtJoined applies the three join rules to one go statement.
func goStmtJoined(pass *Pass, idx funcIndex, recvs map[types.Object]bool, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	info := pass.TypesInfo
	body := spawnedBody(info, idx, gs)
	if body == nil {
		// A dynamic call (function value) — nothing to follow; require the
		// WaitGroup half that is visible here.
		return waitGroupAddBefore(info, fd, gs)
	}

	// WaitGroup join: Add dominates the spawn, Done appears in the body.
	if waitGroupAddBefore(info, fd, gs) &&
		bodyContainsCall(info, idx, body, 1, func(call *ast.CallExpr) bool {
			return isWaitGroupMethod(info, call, "Done")
		}) {
		return true
	}

	// Channel join: the body closes or sends a channel that the package
	// receives from somewhere.
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if obj := chanHandle(info, n.Args[0]); obj != nil && recvs[obj] {
					joined = true
				}
			}
		case *ast.SendStmt:
			if obj := chanHandle(info, n.Chan); obj != nil && recvs[obj] {
				joined = true
			}
		case *ast.UnaryExpr:
			// Context bound: <-ctx.Done() (or inside a select) ends the
			// goroutine when the owner cancels.
			if isCtxDoneRecv(info, n) {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// spawnedBody resolves the go statement's target body: a func literal
// directly, or a same-package function/method declaration.
func spawnedBody(info *types.Info, idx funcIndex, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := calleeOf(info, gs.Call); fn != nil {
		if fd, ok := idx[fn]; ok {
			return fd.Body
		}
	}
	return nil
}

// waitGroupAddBefore reports whether a sync.WaitGroup Add call lexically
// precedes the go statement in the spawning function.
func waitGroupAddBefore(info *types.Info, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	return callBefore(info, fd.Body, gs.Pos(), func(call *ast.CallExpr) bool {
		return isWaitGroupMethod(info, call, "Add")
	})
}

// isWaitGroupMethod reports whether call is wg.<name>() on a
// sync.WaitGroup (possibly reached through fields or pointers).
func isWaitGroupMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return isPkgType(info.TypeOf(sel.X), "sync", "WaitGroup")
}

// isCtxDoneRecv reports whether e is `<-x.Done()` for a context.Context x.
func isCtxDoneRecv(info *types.Info, e *ast.UnaryExpr) bool {
	if e.Op.String() != "<-" {
		return false
	}
	call, ok := ast.Unparen(e.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	return isPkgType(info.TypeOf(sel.X), "context", "Context")
}

// chanHandle names the channel-valued variable or struct field behind e,
// the identity the channel-join rule matches between the spawned body's
// close/send and the package's receives.
func chanHandle(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Chan); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj := info.ObjectOf(e.Sel); obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Chan); ok {
				return obj
			}
		}
	}
	return nil
}

// packageChanReceives collects every channel variable/field the package
// receives from: unary <-ch, range over a channel, and select comm
// clauses (whose receives appear as the other two forms).
func packageChanReceives(pass *Pass) map[types.Object]bool {
	info := pass.TypesInfo
	out := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					if obj := chanHandle(info, n.X); obj != nil {
						out[obj] = true
					}
				}
			case *ast.RangeStmt:
				if obj := chanHandle(info, n.X); obj != nil {
					out[obj] = true
				}
			}
			return true
		})
	}
	return out
}

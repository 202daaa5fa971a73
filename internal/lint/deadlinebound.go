package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadlineBound enforces the wire path's timeout discipline (PROTOCOL.md
// §"Timeouts"): a blocking read or write on a connection must be dominated
// by a deadline — `SetReadDeadline`/`SetWriteDeadline`/`SetDeadline` on
// the conn, or a context built with `WithTimeout`/`WithDeadline` — so a
// stalled or malicious peer can never wedge a server goroutine (or a
// client pool slot) forever. An undeadlined read is the quiet failure
// mode of every network server: it passes every test and then pins a
// connection slot in production.
//
// Blocking wire ops are calls to the frame codec (`ReadFrame*`/
// `WriteFrame*`), read methods on *bufio.Reader, write/flush methods on
// *bufio.Writer, and Read/Write on a net.Conn. The domination test is
// lexical (see interproc.go): a deadline call earlier in the same
// function satisfies the rule even when configuration-gated, because
// "this path can arm a deadline" is the reviewable property; whether a
// zero config disables it is a deployment decision.
var DeadlineBound = &Analyzer{
	Name: "deadlinebound",
	Doc:  "check that blocking conn/bufio wire ops are dominated by SetReadDeadline/SetWriteDeadline/SetDeadline or a context with a deadline",
	Run:  runDeadlineBound,
}

// wireDir classifies a blocking wire op's direction, which selects the
// deadline call that satisfies it.
type wireDir int

const (
	dirNone wireDir = iota
	dirRead
	dirWrite
)

var bufioReadMethods = map[string]bool{
	"Read": true, "ReadByte": true, "ReadBytes": true, "ReadString": true,
	"ReadSlice": true, "ReadRune": true, "ReadLine": true, "Peek": true,
	"Discard": true,
}

var bufioWriteMethods = map[string]bool{
	"Write": true, "WriteByte": true, "WriteString": true, "WriteRune": true,
	"Flush": true,
}

func runDeadlineBound(pass *Pass) error {
	if !inServingScope(pass,
		"repro/internal/server",
		"repro/pkg/vnlclient",
	) {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		for _, fd := range fileFuncs(file) {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				dir, what := blockingWireOp(info, call)
				if dir == dirNone {
					return true
				}
				if deadlineBefore(info, fd, call, dir) {
					return true
				}
				pass.Reportf(call.Pos(), "blocking %s is not dominated by a deadline: arm %s or a context with a timeout first", what, deadlineHint(dir))
				return true
			})
		}
	}
	return nil
}

func deadlineHint(dir wireDir) string {
	if dir == dirWrite {
		return "SetWriteDeadline/SetDeadline"
	}
	return "SetReadDeadline/SetDeadline"
}

// blockingWireOp classifies call as a blocking wire operation, returning
// its direction and a human name for the diagnostic.
func blockingWireOp(info *types.Info, call *ast.CallExpr) (wireDir, string) {
	// The frame codec: package-level ReadFrame*/WriteFrame* functions
	// (internal/server's or a fixture's), the buffer-reusing variants
	// included.
	if fn := calleeOf(info, call); fn != nil && fn.Type().(*types.Signature).Recv() == nil {
		switch name := fn.Name(); {
		case strings.HasPrefix(name, "ReadFrame"):
			return dirRead, name
		case strings.HasPrefix(name, "WriteFrame"):
			return dirWrite, name
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return dirNone, ""
	}
	name := sel.Sel.Name
	recv := info.TypeOf(sel.X)
	switch {
	case isPkgType(recv, "bufio", "Reader") && bufioReadMethods[name]:
		return dirRead, "bufio.Reader." + name
	case isPkgType(recv, "bufio", "Writer") && bufioWriteMethods[name]:
		return dirWrite, "bufio.Writer." + name
	case isPkgType(recv, "net", "Conn") && name == "Read":
		return dirRead, "net.Conn.Read"
	case isPkgType(recv, "net", "Conn") && name == "Write":
		return dirWrite, "net.Conn.Write"
	}
	return dirNone, ""
}

// deadlineBefore reports whether a deadline covering dir is armed lexically
// before the op in the enclosing function.
func deadlineBefore(info *types.Info, fd *ast.FuncDecl, op *ast.CallExpr, dir wireDir) bool {
	return callBefore(info, fd.Body, op.Pos(), func(call *ast.CallExpr) bool {
		if fn := calleeOf(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			switch fn.Name() {
			case "WithTimeout", "WithDeadline":
				return true
			}
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch sel.Sel.Name {
		case "SetDeadline":
			return true
		case "SetReadDeadline":
			return dir == dirRead
		case "SetWriteDeadline":
			return dir == dirWrite
		}
		return false
	})
}

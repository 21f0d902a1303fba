package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// UncheckedErr flags statement-level calls that silently discard an error
// result from an error-critical package: the MPI layer (a dropped
// Send/Recv/Bcast/Reduce error leaves ranks desynchronized and
// poisons every later bitwise-deterministic reduction) and the
// serialization/IO paths used by the wire protocol and checkpointing.
//
// Only implicit discards are reported — a bare `c.Bcast(...)` as its own
// statement. An explicit `_ = c.Bcast(...)` records a decision and is
// allowed, as are discards in defer/go statements (conventional for
// best-effort cleanup like deferred Close).
type UncheckedErr struct{}

// errCriticalPkgs are the packages whose error returns must never be
// dropped implicitly.
var errCriticalPkgs = map[string]bool{
	"repro/internal/mpi": true,
	"encoding/gob":       true,
	"encoding/json":      true,
	"io":                 true,
	"bufio":              true,
	"os":                 true,
}

// Name implements Analyzer.
func (UncheckedErr) Name() string { return "uncheckederr" }

// Doc implements Analyzer.
func (UncheckedErr) Doc() string {
	return "statement-level call discards an error from mpi/gob/json/io/bufio/os; " +
		"a dropped Comm error desynchronizes ranks and corrupts the deterministic reduction"
}

// Run implements Analyzer.
func (u UncheckedErr) Run(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || !errCriticalPkgs[pkgPath(fn)] {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !returnsError(sig) {
				return true
			}
			out = append(out, p.finding(u, SevError, stmt,
				"error result of %s discarded; check it or assign to _ explicitly", shortFuncName(fn)))
			return true
		})
	}
	return out
}

// returnsError reports whether any result of sig is the error type.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// shortFuncName renders a function or method name without the module
// prefix: "(*mpi.Comm).Bcast", "gob.(*Encoder).Encode".
func shortFuncName(fn *types.Func) string {
	name := fn.FullName()
	name = strings.ReplaceAll(name, "repro/internal/", "")
	return name
}

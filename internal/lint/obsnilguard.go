package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsNilGuard enforces the observability layer's nil-safety contract at
// its boundary: the Metrics, Trace and Events fields of *obs.Observer
// must not be accessed directly outside the obs tree, because a nil
// pointer — the documented "observability disabled" state threaded
// through every training entry point — panics on field selection. The
// established idiom is the nil-safe accessor surface: ob.Registry(),
// ob.Tracer(), ob.Span(), ob.EventLog().
//
// A direct field access is accepted only under an explicit nil guard: an
// enclosing `if ob != nil` (or the else-branch of `if ob == nil`), or a
// preceding `if ob == nil { return/panic/... }` early exit in the same
// function body.
type ObsNilGuard struct{}

// obsPkgPath is the package whose contract this analyzer enforces; its
// own methods implement the nil checks and are exempt.
const obsPkgPath = "repro/internal/obs"

// nilGuardedField maps each guarded struct field to the nil-safe
// accessor that replaces it, keyed by owning type.
var nilGuardedFields = map[string]map[string]string{
	"Observer": {"Metrics": "Registry", "Trace": "Tracer", "Events": "EventLog"},
}

// Name implements Analyzer.
func (ObsNilGuard) Name() string { return "obsnilguard" }

// Doc implements Analyzer.
func (ObsNilGuard) Doc() string {
	return "unguarded Metrics/Trace/Events field access on a possibly-nil *obs.Observer; " +
		"use the nil-safe accessors or guard with `if ob != nil`"
}

// Run implements Analyzer.
func (o ObsNilGuard) Run(p *Package) []Finding {
	if p.ImportPath == obsPkgPath {
		return nil
	}
	var out []Finding
	p.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		// Only pointer receivers can be nil; value Observers are safe.
		ptr, ok := p.Info.TypeOf(sel.X).(*types.Pointer)
		if !ok {
			return true
		}
		owner, typeLabel := guardedOwner(ptr.Elem())
		if owner == "" {
			return true
		}
		accessor, ok := nilGuardedFields[owner][sel.Sel.Name]
		if !ok {
			return true
		}
		recv := types.ExprString(sel.X)
		if guardedByEnclosingIf(stack, sel, recv) || guardedByEarlyExit(stack, sel, recv) ||
			guardedByShortCircuit(stack, sel, recv) {
			return true
		}
		out = append(out, p.finding(o, SevError, sel,
			"%s.%s accessed without a nil guard; a nil %s (observability disabled) panics here — use %s.%s() instead",
			recv, sel.Sel.Name, typeLabel, recv, accessor))
		return true
	})
	return out
}

// guardedOwner reports whether t is the nil-guarded type — "Observer" —
// plus its human-readable label, or "" when it is not.
func guardedOwner(t types.Type) (owner, label string) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	if obj := named.Obj(); obj.Name() == "Observer" && pkgPath(obj) == obsPkgPath {
		return "Observer", "*obs.Observer"
	}
	return "", ""
}

// guardedByEnclosingIf reports whether node sits in the then-branch of an
// if whose condition establishes recv != nil (conjunctions are searched;
// disjunctions are not, since they prove nothing), or in the else-branch
// of an `if recv == nil`.
func guardedByEnclosingIf(stack []ast.Node, node ast.Node, recv string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		inBody := ifs.Body != nil && within(node, ifs.Body)
		inElse := ifs.Else != nil && within(node, ifs.Else)
		if inBody && condProvesNonNil(ifs.Cond, recv, token.NEQ) {
			return true
		}
		if inElse && condProvesNonNil(ifs.Cond, recv, token.EQL) {
			return true
		}
	}
	return false
}

// guardedByEarlyExit reports whether a statement before node in an
// enclosing block is `if recv == nil { ... }` whose body cannot fall
// through (return, panic, or a terminating call like log.Fatal/os.Exit).
func guardedByEarlyExit(stack []ast.Node, node ast.Node, recv string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, stmt := range block.List {
			if stmt.Pos() >= node.Pos() {
				break
			}
			ifs, ok := stmt.(*ast.IfStmt)
			if !ok || ifs.Else != nil {
				continue
			}
			if condProvesNonNil(ifs.Cond, recv, token.EQL) && terminates(ifs.Body) {
				return true
			}
		}
	}
	return false
}

// guardedByShortCircuit reports whether node is the right operand of a
// short-circuit operator whose left operand already decides nilness:
// `recv != nil && ...node...` only evaluates node when recv is non-nil,
// and so does `recv == nil || ...node...`.
func guardedByShortCircuit(stack []ast.Node, node ast.Node, recv string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		bin, ok := stack[i].(*ast.BinaryExpr)
		if !ok || !within(node, bin.Y) {
			continue
		}
		switch bin.Op {
		case token.LAND:
			if condProvesNonNil(bin.X, recv, token.NEQ) {
				return true
			}
		case token.LOR:
			if condProvesNonNil(bin.X, recv, token.EQL) {
				return true
			}
		}
	}
	return false
}

// condProvesNonNil searches cond (descending through &&) for the
// comparison `recv <op> nil` or `nil <op> recv`.
func condProvesNonNil(cond ast.Expr, recv string, op token.Token) bool {
	bin, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if bin.Op == token.LAND {
		return condProvesNonNil(bin.X, recv, op) || condProvesNonNil(bin.Y, recv, op)
	}
	if bin.Op != op {
		return false
	}
	x, y := types.ExprString(bin.X), types.ExprString(bin.Y)
	return (x == recv && y == "nil") || (x == "nil" && y == recv)
}

// terminates reports whether a block's last statement stops fall-through:
// return, panic, or a call conventionally known not to return.
func terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln"
		}
	}
	return false
}

// within reports whether node lies inside container's source range.
func within(node, container ast.Node) bool {
	return container.Pos() <= node.Pos() && node.End() <= container.End()
}

package lint

// Shared machinery for the p2pcheck analyzer family (tagspace, opproto,
// sendrecvpair). This file models the point-to-point surface of
// repro/internal/mpi — Send/Recv/Isend, the typed
// SendBytes/RecvBytes(Timeout)/SendF32/RecvF32 wrappers and the free
// RecvTimeout — and extracts per-function ordered traces of p2p events
// with their statically-resolved tags.
//
// Two abstractions carry the analyses:
//
//   - tagForm: a tag argument resolved to a constant, to a named base
//     constant plus a dynamic offset ("tagElasticReply+round"), to the
//     AnyTag wildcard, or to "unknown". Unknown tags are dropped, so
//     every check errs toward silence on dynamic protocols.
//   - p2pEvent traces: one statement walk per function (conditional
//     marking, source order), with same-package calls and
//     single-assignment closures spliced in. Splicing substitutes tag
//     arguments through parameter positions, so a send wrapper, or a
//     reply closure, resolves at its call sites.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// mpiPkgPath is the package whose point-to-point surface these
// analyzers understand.
const mpiPkgPath = "repro/internal/mpi"

// p2pDir is the direction of one point-to-point operation.
type p2pDir int

const (
	dirSend p2pDir = iota
	dirRecv
)

// p2pSig describes one mpi point-to-point function: direction, where
// the tag sits in the argument list, and whether a receive blocks
// without a deadline bound.
type p2pSig struct {
	dir      p2pDir
	tagArg   int
	blocking bool
}

// p2pSigs maps mpi function names (methods and the free RecvTimeout) to
// their signatures. Timeout-bounded receives are non-blocking for
// deadlock purposes: they are the eviction path, not a hang.
var p2pSigs = map[string]p2pSig{
	"Send":             {dirSend, 1, false},
	"Recv":             {dirRecv, 1, true},
	"SendBytes":        {dirSend, 1, false},
	"RecvBytes":        {dirRecv, 1, true},
	"RecvBytesTimeout": {dirRecv, 1, false},
	"SendF32":          {dirSend, 1, false},
	"RecvF32":          {dirRecv, 1, true},
	"Isend":            {dirSend, 1, false},
	"RecvTimeout":      {dirRecv, 2, false},
}

// tagBlockWidth is the span a base constant used with a dynamic offset
// reserves: mpi.go's tag plan gives each such base its own 2²⁴-wide
// block (collective rounds, elastic reply rounds, heartbeat rounds).
const tagBlockWidth = 1 << 24

// tagForm is a statically-resolved tag argument.
type tagForm struct {
	// known reports the tag resolved to a constant or base+offset form;
	// everything below is meaningless when false.
	known bool
	// anyTag marks the mpi.AnyTag wildcard (-1).
	anyTag bool
	// base is the named constant the tag is built from, or nil when the
	// tag is a bare literal or constant arithmetic without a single
	// identifiable base.
	base *types.Const
	// val is the tag's static value (the base's value in offset form).
	val int
	// offset reports a non-constant addend on top of base: the tag
	// occupies the block [val, val+tagBlockWidth) rather than a point.
	offset bool
}

// render names the tag for findings: "tagElastic (=9500)", "9500", with
// "+offset" appended for dynamic forms.
func (t tagForm) render() string {
	var s string
	if t.base != nil {
		s = fmt.Sprintf("%s (=%d)", t.base.Name(), t.val)
	} else {
		s = fmt.Sprintf("%d", t.val)
	}
	if t.offset {
		s += "+offset"
	}
	return s
}

// p2pEvent is one point-to-point operation (or an opacity marker) in a
// summarized execution path.
type p2pEvent struct {
	dir      p2pDir
	blocking bool
	tag      tagForm
	// tagParam is the summarized function's parameter index the tag
	// aliases when unresolved (-1 otherwise); splicing substitutes the
	// call-site argument through it.
	tagParam int
	// opaque marks a call that hands an mpi.Comm/Transport to another
	// package: its traffic is invisible, so sequence claims about the
	// surrounding path are off.
	opaque bool
	// report marks the event copy anchored where its tag was supplied
	// (the direct call, or the splice that resolved a parameter tag);
	// deeper splice copies keep the trace but must not re-report.
	report bool
	// node anchors findings; site renders the position for messages
	// about the other side of the protocol.
	node        ast.Node
	site        string
	conditional bool
}

// p2pSummary is the ordered p2p trace of one function body.
type p2pSummary struct {
	events []p2pEvent
}

// linear reports a single unconditional path with no opaque calls — the
// precondition for ordering claims (deadlock pairing).
func (s *p2pSummary) linear() bool {
	for _, e := range s.events {
		if e.conditional || e.opaque {
			return false
		}
	}
	return true
}

// p2pPass carries one package's p2p analysis state.
type p2pPass struct {
	p *Package

	// decls maps function objects to declarations for summary splicing;
	// varDef resolves single-assignment variables (closure values).
	decls  map[*types.Func]*ast.FuncDecl
	varDef map[types.Object]ast.Expr

	summaries     map[*types.Func]*p2pSummary
	inProgress    map[*types.Func]bool
	litSummaries  map[*ast.FuncLit]*p2pSummary
	litInProgress map[*ast.FuncLit]bool

	// curParams maps parameter objects of the function currently being
	// summarized to their indices (stacked across recursive summarize).
	curParams map[types.Object]int

	// noSplice disables local-call and closure splicing while set: tail
	// collection wants only the traffic written at the site itself.
	noSplice bool
}

func newP2PPass(p *Package) *p2pPass {
	z := &p2pPass{
		p:             p,
		decls:         map[*types.Func]*ast.FuncDecl{},
		varDef:        map[types.Object]ast.Expr{},
		summaries:     map[*types.Func]*p2pSummary{},
		inProgress:    map[*types.Func]bool{},
		litSummaries:  map[*ast.FuncLit]*p2pSummary{},
		litInProgress: map[*ast.FuncLit]bool{},
	}
	z.collectDecls()
	return z
}

// collectDecls indexes function declarations and single-assignment
// variable definitions across the package.
func (z *p2pPass) collectDecls() {
	for _, file := range z.p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := z.p.Info.Defs[fd.Name].(*types.Func); ok {
				z.decls[fn] = fd
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					if obj := z.p.Info.Defs[id]; obj != nil {
						z.varDef[obj] = st.Rhs[i]
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i, id := range st.Names {
					if obj := z.p.Info.Defs[id]; obj != nil {
						z.varDef[obj] = st.Values[i]
					}
				}
			}
			return true
		})
	}
}

// orderedDecls returns the package's function declarations in source
// order.
func (z *p2pPass) orderedDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range z.p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// site renders node's position as a root-relative file:line.
func (z *p2pPass) site(node ast.Node) string {
	return sitePos(z.p, node.Pos())
}

// sitePos renders any position in p's FileSet as a root-relative
// file:line, the cross-reference style of findings.
func sitePos(p *Package, tp token.Pos) string {
	pos := p.Fset.Position(tp)
	file := pos.Filename
	if rel, err := filepath.Rel(p.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)
}

// p2pCall resolves a call to an mpi point-to-point function, or
// ok=false. Matching is by declaring package and name, so the Transport
// interface methods and every concrete transport's Send/Recv all
// resolve.
func (z *p2pPass) p2pCall(call *ast.CallExpr) (p2pSig, bool) {
	fn := z.p.calleeFunc(call)
	if fn == nil || pkgPath(fn) != mpiPkgPath {
		return p2pSig{}, false
	}
	sig, ok := p2pSigs[fn.Name()]
	return sig, ok
}

// localCallee resolves a call to a function declared in this package.
func (z *p2pPass) localCallee(call *ast.CallExpr) *types.Func {
	fn := z.p.calleeFunc(call)
	if fn == nil || fn.Pkg() != z.p.Types {
		return nil
	}
	if _, ok := z.decls[fn]; !ok {
		return nil
	}
	return fn
}

// closureCallee resolves a call through a variable defined once as a
// function literal (the elastic worker's reply closure shape).
func (z *p2pPass) closureCallee(call *ast.CallExpr) *ast.FuncLit {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := z.p.Info.Uses[id]
	if obj == nil {
		return nil
	}
	def, ok := z.varDef[obj]
	if !ok {
		return nil
	}
	lit, _ := unparen(def).(*ast.FuncLit)
	return lit
}

// constInt resolves e to a constant int via go/types.
func (z *p2pPass) constInt(e ast.Expr) (int, bool) {
	tv, ok := z.p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok {
		return 0, false
	}
	return int(v), true
}

// namedConst returns the package-level constant e names, or nil.
func (z *p2pPass) namedConst(e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := z.p.Info.Uses[id].(*types.Const)
	return c
}

// resolveTag classifies a tag argument: constant, base+dynamic-offset,
// wildcard, or unknown.
func (z *p2pPass) resolveTag(e ast.Expr) tagForm {
	e = unparen(e)
	if v, ok := z.constInt(e); ok {
		return tagForm{known: true, anyTag: v == -1, base: z.namedConst(e), val: v}
	}
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			cst, dyn := pair[0], pair[1]
			if v, ok := z.constInt(cst); ok {
				if _, dynConst := z.constInt(dyn); !dynConst {
					return tagForm{known: true, base: z.namedConst(cst), val: v, offset: true}
				}
			}
		}
	}
	return tagForm{}
}

// paramIndex returns the index of the parameter of the function being
// summarized that e names, or -1.
func (z *p2pPass) paramIndex(e ast.Expr) int {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || z.curParams == nil {
		return -1
	}
	obj := z.p.Info.Uses[id]
	if obj == nil {
		return -1
	}
	if idx, ok := z.curParams[obj]; ok {
		return idx
	}
	return -1
}

// paramObjects maps the parameter objects of a declared function or
// literal to their positional indices.
func (z *p2pPass) paramObjects(ft *ast.FuncType) map[types.Object]int {
	params := map[types.Object]int{}
	if ft.Params == nil {
		return params
	}
	i := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := z.p.Info.Defs[name]; obj != nil {
				params[obj] = i
			}
			i++
		}
	}
	return params
}

// isCommType reports whether t is (a pointer to) mpi.Comm or the
// mpi.Transport interface.
func isCommType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != mpiPkgPath {
		return false
	}
	return obj.Name() == "Comm" || obj.Name() == "Transport"
}

// --- summary extraction ---

// summarize returns fn's memoized p2p trace.
func (z *p2pPass) summarize(fn *types.Func) *p2pSummary {
	if s, ok := z.summaries[fn]; ok {
		return s
	}
	if z.inProgress[fn] {
		return &p2pSummary{}
	}
	z.inProgress[fn] = true
	sum := &p2pSummary{}
	if fd := z.decls[fn]; fd != nil {
		saved := z.curParams
		z.curParams = z.paramObjects(fd.Type)
		z.collectStmts(fd.Body.List, false, sum)
		z.curParams = saved
	}
	z.inProgress[fn] = false
	z.summaries[fn] = sum
	return sum
}

// summarizeLit summarizes a closure body the same way.
func (z *p2pPass) summarizeLit(lit *ast.FuncLit) *p2pSummary {
	if s, ok := z.litSummaries[lit]; ok {
		return s
	}
	if z.litInProgress[lit] {
		return &p2pSummary{}
	}
	z.litInProgress[lit] = true
	sum := &p2pSummary{}
	saved := z.curParams
	z.curParams = z.paramObjects(lit.Type)
	z.collectStmts(lit.Body.List, false, sum)
	z.curParams = saved
	z.litInProgress[lit] = false
	z.litSummaries[lit] = sum
	return sum
}

// stmtSummary summarizes a single statement subtree (sender analysis).
func (z *p2pPass) stmtSummary(s ast.Stmt) *p2pSummary {
	sum := &p2pSummary{}
	z.collectStmt(s, false, sum)
	return sum
}

// usesGroupConst reports whether any identifier under s (outside
// dispatch labels) refers to one of the group's constants.
func (z *p2pPass) usesGroupConst(s ast.Stmt, group map[*types.Const]bool, labels map[*ast.Ident]bool) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !labels[id] {
			if cobj, isConst := z.p.Info.Uses[id].(*types.Const); isConst && group[cobj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// collectStmts appends the p2p events of stmts in source order.
func (z *p2pPass) collectStmts(stmts []ast.Stmt, conditional bool, sum *p2pSummary) {
	for _, s := range stmts {
		z.collectStmt(s, conditional, sum)
	}
}

func (z *p2pPass) collectStmt(s ast.Stmt, conditional bool, sum *p2pSummary) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			z.collectStmt(s.Init, conditional, sum)
		}
		z.collectExpr(s.Cond, conditional, sum)
		z.collectStmts(s.Body.List, true, sum)
		if s.Else != nil {
			z.collectStmt(s.Else, true, sum)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			z.collectStmt(s.Init, conditional, sum)
		}
		if s.Tag != nil {
			z.collectExpr(s.Tag, conditional, sum)
		}
		z.collectStmts(s.Body.List, true, sum)
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if st, ok := n.(*ast.BlockStmt); ok && st != s {
				z.collectStmts(st.List, true, sum)
				return false
			}
			return true
		})
	case *ast.CaseClause:
		z.collectStmts(s.Body, conditional, sum)
	case *ast.ForStmt:
		if s.Init != nil {
			z.collectStmt(s.Init, true, sum)
		}
		if s.Cond != nil {
			z.collectExpr(s.Cond, true, sum)
		}
		z.collectStmts(s.Body.List, true, sum)
		if s.Post != nil {
			z.collectStmt(s.Post, true, sum)
		}
	case *ast.RangeStmt:
		z.collectExpr(s.X, conditional, sum)
		z.collectStmts(s.Body.List, true, sum)
	case *ast.BlockStmt:
		z.collectStmts(s.List, conditional, sum)
	case *ast.LabeledStmt:
		z.collectStmt(s.Stmt, conditional, sum)
	case *ast.GoStmt:
		z.collectExpr(s.Call, true, sum)
	case *ast.DeferStmt:
		z.collectExpr(s.Call, true, sum)
	case *ast.ExprStmt:
		z.collectExpr(s.X, conditional, sum)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			z.collectExpr(r, conditional, sum)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			z.collectExpr(r, conditional, sum)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				z.collectExpr(e, conditional, sum)
				return false
			}
			return true
		})
	case *ast.SendStmt:
		z.collectExpr(s.Value, conditional, sum)
	}
}

// collectExpr scans one expression for p2p calls, spliced local and
// closure calls, and comm-escaping opaque calls, in source order.
func (z *p2pPass) collectExpr(e ast.Expr, conditional bool, sum *p2pSummary) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs at some unknowable time; its events
			// are conditional by construction.
			z.collectStmts(n.Body.List, true, sum)
			return false
		case *ast.CallExpr:
			for _, arg := range n.Args {
				z.collectExpr(arg, conditional, sum)
			}
			if sig, ok := z.p2pCall(n); ok {
				sum.events = append(sum.events, z.eventFor(n, sig, conditional))
				return false
			}
			if !z.noSplice {
				if fn := z.localCallee(n); fn != nil {
					z.splice(n, z.summarize(fn), conditional, sum)
					return false
				}
				if lit := z.closureCallee(n); lit != nil {
					z.splice(n, z.summarizeLit(lit), conditional, sum)
					return false
				}
			}
			// A call that hands a Comm or Transport to code this package
			// cannot see may carry p2p traffic; record the opacity.
			for _, arg := range n.Args {
				if isCommType(z.p.Info.TypeOf(arg)) {
					sum.events = append(sum.events, p2pEvent{
						opaque: true, node: n, site: z.site(n), conditional: conditional,
					})
					break
				}
			}
			z.collectExpr(n.Fun, conditional, sum)
			return false
		}
		return true
	})
}

// eventFor builds the event for one direct p2p call.
func (z *p2pPass) eventFor(call *ast.CallExpr, sig p2pSig, conditional bool) p2pEvent {
	ev := p2pEvent{
		dir:         sig.dir,
		blocking:    sig.blocking,
		tagParam:    -1,
		report:      true,
		node:        call,
		site:        z.site(call),
		conditional: conditional,
	}
	if sig.tagArg < len(call.Args) {
		tagExpr := call.Args[sig.tagArg]
		ev.tag = z.resolveTag(tagExpr)
		if !ev.tag.known {
			ev.tagParam = z.paramIndex(tagExpr)
			ev.report = false // a splice that supplies the tag reports
		}
	}
	return ev
}

// splice copies a callee summary into sum at a call site, substituting
// tag arguments through parameter positions. The copy whose
// substitution resolves a previously-unknown tag becomes the reporting
// copy; deeper copies keep the trace but stay silent.
func (z *p2pPass) splice(call *ast.CallExpr, callee *p2pSummary, conditional bool, sum *p2pSummary) {
	for _, ev := range callee.events {
		ev.conditional = ev.conditional || conditional
		ev.report = false
		ev.node = call
		if !ev.tag.known && ev.tagParam >= 0 && ev.tagParam < len(call.Args) && call.Ellipsis == token.NoPos {
			arg := call.Args[ev.tagParam]
			if tf := z.resolveTag(arg); tf.known {
				ev.tag = tf
				ev.tagParam = -1
				ev.report = true
				ev.site = z.site(call)
			} else {
				ev.tagParam = z.paramIndex(arg)
			}
		}
		sum.events = append(sum.events, ev)
	}
}

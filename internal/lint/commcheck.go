package lint

import (
	"go/ast"
	"go/types"
)

// CommCheck statically guards the collective protocol built on
// repro/internal/mpi. MPI-style collectives are only correct when every
// rank executes the same sequence of operations; a collective executed
// under a conditional that depends on Comm.Rank() runs on a subset of
// ranks and deadlocks the rest. Collective calls are found directly and
// through same-package calls. Legitimate uses (root-only payload staging
// around a collective, not the collective itself; the session's rank
// dispatch into the master and worker loops) are rare and must carry a
// //lint:ignore justification.
//
// Worker arms are not diffed against their master senders: the one
// master/worker collective protocol, internal/core's, derives both
// sides from a single ops-table row, and mpi.CheckedComm verifies every
// collective across ranks at run time.
//
// The mpi package itself is exempt: its tree implementations are
// intentionally rank-asymmetric below the collective boundary.
type CommCheck struct{}

// Name implements Analyzer.
func (CommCheck) Name() string { return "commcheck" }

// Doc implements Analyzer.
func (CommCheck) Doc() string {
	return "cross-rank collective-protocol conformance: collectives (direct or through " +
		"same-package calls) must not sit under Rank()-dependent conditionals"
}

// mpiPkgPath is the package whose collective surface this analyzer
// understands.
const mpiPkgPath = "repro/internal/mpi"

// collKinds maps mpi.Comm collective method names to the operation
// named in findings.
var collKinds = map[string]string{
	"Bcast":        "bcast",
	"Reduce":       "reduce",
	"ReduceF64":    "reduce",
	"Allreduce":    "allreduce",
	"AllreduceF64": "allreduce",
	"Barrier":      "barrier",
	"Gather":       "gather",
	"Scatter":      "scatter",
	"Allgather":    "allgather",
}

// commAnalysis carries one package's analysis state.
type commAnalysis struct {
	p     *Package
	check CommCheck

	// decls maps function objects to their declarations, for counting
	// collectives across same-package calls.
	decls map[*types.Func]*ast.FuncDecl
	// counts memoizes per-function collective counts; inProgress guards
	// recursion so cycles count as zero instead of looping.
	counts     map[*types.Func]int
	inProgress map[*types.Func]bool

	findings []Finding
}

// Run implements Analyzer.
func (c CommCheck) Run(p *Package) []Finding {
	if p.ImportPath == mpiPkgPath {
		return nil
	}
	a := &commAnalysis{
		p:          p,
		check:      c,
		decls:      map[*types.Func]*ast.FuncDecl{},
		counts:     map[*types.Func]int{},
		inProgress: map[*types.Func]bool{},
	}
	for _, fd := range a.orderedDecls() {
		if fn, ok := a.p.Info.Defs[fd.Name].(*types.Func); ok {
			a.decls[fn] = fd
		}
	}
	a.checkRankConditionals()
	return a.findings
}

// collectiveKind resolves a call to an mpi collective method, or ok=false.
func (a *commAnalysis) collectiveKind(call *ast.CallExpr) (string, bool) {
	fn := a.p.calleeFunc(call)
	if fn == nil || pkgPath(fn) != mpiPkgPath {
		return "", false
	}
	kind, ok := collKinds[fn.Name()]
	return kind, ok
}

// localCallee resolves a call to a function declared in this package.
func (a *commAnalysis) localCallee(call *ast.CallExpr) *types.Func {
	fn := a.p.calleeFunc(call)
	if fn == nil || fn.Pkg() != a.p.Types {
		return nil
	}
	if _, ok := a.decls[fn]; !ok {
		return nil
	}
	return fn
}

// collectives returns the memoized number of collective calls fn's body
// makes, directly or through same-package calls (closures included). A
// recursion cycle or a missing body counts as zero.
func (a *commAnalysis) collectives(fn *types.Func) int {
	if n, ok := a.counts[fn]; ok {
		return n
	}
	fd := a.decls[fn]
	if fd == nil || a.inProgress[fn] {
		return 0
	}
	a.inProgress[fn] = true
	n := 0
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if _, ok := a.collectiveKind(call); ok {
				n++
			} else if callee := a.localCallee(call); callee != nil {
				n += a.collectives(callee)
			}
		}
		return true
	})
	a.inProgress[fn] = false
	a.counts[fn] = n
	return n
}

// --- rank-divergent collectives ---

// checkRankConditionals reports collectives executed under conditionals
// that depend on Comm.Rank().
func (a *commAnalysis) checkRankConditionals() {
	for _, fd := range a.orderedDecls() {
		rankVars := a.rankDerivedVars(fd)
		reported := map[ast.Node]bool{}
		a.walkRankBranches(fd.Body.List, false, rankVars, reported)
	}
}

// orderedDecls returns the package's function declarations in source
// order, for deterministic output.
func (a *commAnalysis) orderedDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range a.p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// rankDerivedVars collects variables assigned from a Comm.Rank() call
// anywhere in fd.
func (a *commAnalysis) rankDerivedVars(fd *ast.FuncDecl) map[types.Object]bool {
	vars := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || !a.isRankExpr(st.Rhs[i], nil) {
				continue
			}
			if obj := a.p.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := a.p.Info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
		return true
	})
	return vars
}

// isRankExpr reports whether e contains a Comm.Rank() call or a
// rank-derived variable.
func (a *commAnalysis) isRankExpr(e ast.Expr, rankVars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := a.p.calleeFunc(n); fn != nil && fn.Name() == "Rank" && pkgPath(fn) == mpiPkgPath {
				found = true
			}
		case *ast.Ident:
			if rankVars != nil && rankVars[a.p.Info.Uses[n]] {
				found = true
			}
		}
		return !found
	})
	return found
}

// walkRankBranches descends fd's statements tracking whether control is
// inside a Rank()-dependent branch, and reports each collective (or
// collective-bearing local call) executed there.
func (a *commAnalysis) walkRankBranches(stmts []ast.Stmt, inRankBranch bool, rankVars map[types.Object]bool, reported map[ast.Node]bool) {
	for _, s := range stmts {
		a.walkRankBranch(s, inRankBranch, rankVars, reported)
	}
}

func (a *commAnalysis) walkRankBranch(s ast.Stmt, inRank bool, rankVars map[types.Object]bool, reported map[ast.Node]bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			a.walkRankBranch(s.Init, inRank, rankVars, reported)
		}
		a.reportRankExpr(s.Cond, inRank, reported)
		branchRank := inRank || a.isRankExpr(s.Cond, rankVars)
		a.walkRankBranches(s.Body.List, branchRank, rankVars, reported)
		if s.Else != nil {
			a.walkRankBranch(s.Else, branchRank, rankVars, reported)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.walkRankBranch(s.Init, inRank, rankVars, reported)
		}
		branchRank := inRank
		if s.Tag != nil {
			a.reportRankExpr(s.Tag, inRank, reported)
			branchRank = branchRank || a.isRankExpr(s.Tag, rankVars)
		}
		a.walkRankBranches(s.Body.List, branchRank, rankVars, reported)
	case *ast.CaseClause:
		a.walkRankBranches(s.Body, inRank, rankVars, reported)
	case *ast.ForStmt:
		if s.Init != nil {
			a.walkRankBranch(s.Init, inRank, rankVars, reported)
		}
		if s.Cond != nil {
			a.reportRankExpr(s.Cond, inRank, reported)
		}
		a.walkRankBranches(s.Body.List, inRank, rankVars, reported)
		if s.Post != nil {
			a.walkRankBranch(s.Post, inRank, rankVars, reported)
		}
	case *ast.RangeStmt:
		a.reportRankExpr(s.X, inRank, reported)
		a.walkRankBranches(s.Body.List, inRank, rankVars, reported)
	case *ast.BlockStmt:
		a.walkRankBranches(s.List, inRank, rankVars, reported)
	case *ast.LabeledStmt:
		a.walkRankBranch(s.Stmt, inRank, rankVars, reported)
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if st, ok := n.(*ast.BlockStmt); ok && st != s {
				a.walkRankBranches(st.List, inRank, rankVars, reported)
				return false
			}
			return true
		})
	default:
		// Leaf statement: scan its expressions.
		ast.Inspect(s, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			a.reportRankExpr(e, inRank, reported)
			return false
		})
	}
}

// reportRankExpr scans an expression occurring while control is (or is
// not) under a rank-dependent branch and reports collective traffic.
func (a *commAnalysis) reportRankExpr(e ast.Expr, inRank bool, reported map[ast.Node]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := a.collectiveKind(call); ok {
			if inRank && !reported[call] {
				reported[call] = true
				a.findings = append(a.findings, a.p.finding(a.check, SevWarn, call,
					"%s executed under a Rank()-dependent conditional: only a subset of ranks reaches this collective, deadlocking the rest",
					kind))
			}
			return true
		}
		if fn := a.localCallee(call); fn != nil && inRank && !reported[call] {
			if n := a.collectives(fn); n > 0 {
				reported[call] = true
				a.findings = append(a.findings, a.p.finding(a.check, SevWarn, call,
					"call to %s executes %d collective(s) under a Rank()-dependent conditional: only a subset of ranks reaches them, deadlocking the rest",
					fn.Name(), n))
			}
		}
		return true
	})
}

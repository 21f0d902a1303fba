package lint

// OpProto extracts a point-to-point opcode state machine and diffs its
// two sides. The master issues opcodes over point-to-point frames —
// directly or through helpers — and the worker dispatches on the opcode
// in a switch whose case labels are the opcode constants
// (internal/core's em* frame types, internal/serve's sv* opcodes). Three
// hazards:
//
//   - a dispatch arm whose opcode no master path ever sends with p2p
//     traffic: dead protocol, or a sender that was lost in a refactor;
//   - an opcode sent with p2p traffic but handled by no dispatch arm:
//     the worker's default path treats a live opcode as garbage; or a
//     sender that waits for a reply its arm never sends;
//   - an opcode with a dispatch arm but no case in the opcode name
//     table, so fault reports and event logs show a raw number.
//
// Reply lengths are not compared: the one protocol with fixed-length
// replies, internal/core's, derives both sides from a single ops-table
// row. Arms or senders whose traffic passes a Comm to another package
// are opaque and exempt from reply checks. The opcode group extends to
// every constant declared in the same const block as an arm label, and
// the mpi package itself is exempt.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

type OpProto struct{}

func (OpProto) Name() string { return "opproto" }

func (OpProto) Doc() string {
	return "point-to-point opcode state machine: dispatch arms without master senders, p2p-sent opcodes without dispatch arms, awaited replies no arm sends, and opcodes missing from the name table"
}

// p2pArm is one opcode case of a worker dispatch switch.
type p2pArm struct {
	c       *types.Const
	clause  *ast.CaseClause
	summary *p2pSummary
}

// p2pDispatch is a worker-side opcode switch with p2p-bearing arms.
type p2pDispatch struct {
	stmt *ast.SwitchStmt
	arms []p2pArm
}

// opSender is one master-side use of an opcode constant: the p2p
// conversation written at that site (its statement, spliced, plus the
// unspliced tail), and whether it waits for a reply.
type opSender struct {
	ident        *ast.Ident
	site         string
	expectsReply bool
	opaque       bool
}

func (c OpProto) Run(p *Package) []Finding {
	if p.ImportPath == mpiPkgPath {
		return nil
	}
	z := newP2PPass(p)
	switches, labels := z.findP2PDispatch()
	if len(switches) == 0 {
		return nil
	}

	group := map[*types.Const]bool{}
	armed := map[*types.Const]bool{}
	for _, sw := range switches {
		for _, arm := range sw.arms {
			group[arm.c] = true
			armed[arm.c] = true
		}
	}
	// The opcode group extends across each arm label's const block, so
	// a freshly-declared opcode with a sender but no arm is caught.
	blocks := z.constBlocks()
	groupBlocks := map[*ast.GenDecl]bool{}
	for cobj := range group {
		if b := blocks[cobj]; b != nil {
			groupBlocks[b] = true
		}
	}
	for cobj, b := range blocks {
		if groupBlocks[b] {
			group[cobj] = true
		}
	}

	senders := z.findOpSenders(group, labels)

	var out []Finding
	reported := map[string]bool{}
	report := func(f Finding) {
		key := f.String()
		if !reported[key] {
			reported[key] = true
			out = append(out, f)
		}
	}

	for _, sw := range switches {
		for _, arm := range sw.arms {
			uses := senders[arm.c]
			if len(uses) == 0 {
				report(p.finding(c, SevError, arm.clause,
					"dispatch arm for %s has no master sender: no code path outside this switch issues %s with point-to-point traffic",
					arm.c.Name(), arm.c.Name()))
				continue
			}
			armSends, armOpaque := false, false
			for _, ev := range arm.summary.events {
				if ev.opaque {
					armOpaque = true
				} else if ev.dir == dirSend {
					armSends = true
				}
			}
			for _, u := range uses {
				if !u.opaque && !armOpaque && u.expectsReply && !armSends {
					report(p.finding(c, SevError, arm.clause,
						"master sender at %s waits for a reply to %s but the dispatch arm never sends one",
						u.site, arm.c.Name()))
				}
			}
		}
	}

	// Opcodes sent with p2p traffic but dispatched nowhere.
	orphanOps := make([]*types.Const, 0)
	for cobj := range senders {
		if !armed[cobj] {
			orphanOps = append(orphanOps, cobj)
		}
	}
	sort.SliceStable(orphanOps, func(i, j int) bool { return orphanOps[i].Pos() < orphanOps[j].Pos() })
	for _, cobj := range orphanOps {
		u := senders[cobj][0]
		report(p.finding(c, SevError, u.ident,
			"opcode %s is sent with point-to-point traffic but no worker dispatch arm handles it",
			cobj.Name()))
	}

	// Name-table coverage: every dispatched opcode of a block covered by
	// a string table must have a case in it.
	armedSorted := make([]*types.Const, 0, len(armed))
	for cobj := range armed {
		armedSorted = append(armedSorted, cobj)
	}
	sort.SliceStable(armedSorted, func(i, j int) bool { return armedSorted[i].Pos() < armedSorted[j].Pos() })
	for _, tbl := range z.findNameTables() {
		tblBlocks := map[*ast.GenDecl]bool{}
		for cobj := range tbl.labels {
			if b := blocks[cobj]; b != nil {
				tblBlocks[b] = true
			}
		}
		for _, cobj := range armedSorted {
			if tblBlocks[blocks[cobj]] && !tbl.labels[cobj] {
				report(p.finding(c, SevError, tbl.stmt,
					"opcode %s has a dispatch arm but no case in this opcode name table: fault reports will show a raw number",
					cobj.Name()))
			}
		}
	}

	return out
}

// findP2PDispatch scans every function for worker dispatch switches —
// case labels that are package-level constants with at least one arm
// carrying real p2p traffic — and returns them plus the label set.
func (z *p2pPass) findP2PDispatch() ([]p2pDispatch, map[*ast.Ident]bool) {
	var switches []p2pDispatch
	labels := map[*ast.Ident]bool{}
	for _, fd := range z.orderedDecls() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			// A switch on a received message's wire tag routes traffic,
			// it does not dispatch opcodes: that surface belongs to
			// tagspace and sendrecvpair.
			if z.isMessageTag(sw.Tag) {
				return true
			}
			var arms []p2pArm
			var armLabels []*ast.Ident
			hasEvents := false
			for _, stmt := range sw.Body.List {
				clause := stmt.(*ast.CaseClause)
				if clause.List == nil {
					continue // default
				}
				var clauseConsts []*types.Const
				ok := true
				for _, v := range clause.List {
					id := labelIdent(v)
					if id == nil {
						ok = false
						break
					}
					cobj, isConst := z.p.Info.Uses[id].(*types.Const)
					if !isConst || cobj.Pkg() != z.p.Types || cobj.Parent() != z.p.Types.Scope() {
						ok = false
						break
					}
					clauseConsts = append(clauseConsts, cobj)
					armLabels = append(armLabels, id)
				}
				if !ok {
					return true // not a dispatch switch; keep scanning nested ones
				}
				sum := &p2pSummary{}
				z.collectStmts(clause.Body, false, sum)
				for _, ev := range sum.events {
					if !ev.opaque {
						hasEvents = true
						break
					}
				}
				if len(clauseConsts) == 1 {
					arms = append(arms, p2pArm{c: clauseConsts[0], clause: clause, summary: sum})
				}
			}
			if hasEvents && len(arms) > 0 {
				switches = append(switches, p2pDispatch{stmt: sw, arms: arms})
				for _, id := range armLabels {
					labels[id] = true
				}
			}
			return true
		})
	}
	return switches, labels
}

// isMessageTag matches `x.Tag` where x is an mpi.Message.
func (z *p2pPass) isMessageTag(e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Tag" {
		return false
	}
	t := z.p.Info.TypeOf(sel.X)
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
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == mpiPkgPath && obj.Name() == "Message"
}

// constBlocks maps every package-level constant to its const block.
func (z *p2pPass) constBlocks() map[*types.Const]*ast.GenDecl {
	out := map[*types.Const]*ast.GenDecl{}
	for _, file := range z.p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if cobj, ok := z.p.Info.Defs[name].(*types.Const); ok {
						out[cobj] = gd
					}
				}
			}
		}
	}
	return out
}

// findOpSenders locates every use of a group constant outside dispatch
// labels whose site carries p2p send traffic, and derives the reply
// expectation written there. The issuing statement is summarized with
// helper splicing (a fan-out helper's call site is one conversation); the tail
// — statements up to the next opcode use — is summarized without
// splicing, so an adjacent helper call's unrelated conversation cannot
// masquerade as this site's reply wait.
func (z *p2pPass) findOpSenders(group map[*types.Const]bool, labels map[*ast.Ident]bool) map[*types.Const][]opSender {
	senders := map[*types.Const][]opSender{}
	z.p.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		cobj, isConst := z.p.Info.Uses[id].(*types.Const)
		if !isConst || !group[cobj] || labels[id] {
			return true
		}
		fd, body := enclosingFunc(stack)
		if fd == nil {
			return true
		}
		top := topLevelStmt(body, id)
		if top == nil {
			return true
		}
		stmtSum := z.stmtSummary(top)
		tail := &p2pSummary{}
		z.noSplice = true
		idx := stmtIndex(body, top)
		for _, s := range body.List[idx+1:] {
			if z.usesGroupConst(s, group, labels) {
				break
			}
			z.collectStmt(s, false, tail)
		}
		z.noSplice = false

		u := opSender{ident: id, site: z.site(id)}
		hasSend := false
		for _, ev := range append(append([]p2pEvent(nil), stmtSum.events...), tail.events...) {
			switch {
			case ev.opaque:
				u.opaque = true
			case ev.dir == dirSend:
				hasSend = true
			case ev.dir == dirRecv:
				u.expectsReply = true
			}
		}
		if !hasSend {
			return true
		}
		senders[cobj] = append(senders[cobj], u)
		return true
	})
	return senders
}

// nameTable is a switch mapping opcode constants to string literals
// (an opName-style table).
type nameTable struct {
	stmt   *ast.SwitchStmt
	labels map[*types.Const]bool
}

// findNameTables locates opcode→string tables: a switch over a
// non-constant expression where at least two const-labeled arms consist
// of exactly `return "literal"`.
func (z *p2pPass) findNameTables() []nameTable {
	var tables []nameTable
	for _, fd := range z.orderedDecls() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			if _, isConst := z.constInt(sw.Tag); isConst {
				return true
			}
			labels := map[*types.Const]bool{}
			arms := 0
			for _, stmt := range sw.Body.List {
				clause := stmt.(*ast.CaseClause)
				if clause.List == nil {
					continue
				}
				if len(clause.Body) != 1 {
					return true
				}
				ret, ok := clause.Body[0].(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				lit, ok := unparen(ret.Results[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				clauseOK := true
				for _, v := range clause.List {
					id := labelIdent(v)
					if id == nil {
						clauseOK = false
						break
					}
					cobj, isConst := z.p.Info.Uses[id].(*types.Const)
					if !isConst || cobj.Pkg() != z.p.Types || cobj.Parent() != z.p.Types.Scope() {
						clauseOK = false
						break
					}
					labels[cobj] = true
				}
				if !clauseOK {
					return true
				}
				arms++
			}
			if arms >= 2 {
				tables = append(tables, nameTable{stmt: sw, labels: labels})
			}
			return true
		})
	}
	return tables
}

// labelIdent extracts the identifier of a case label (possibly
// package-qualified), or nil.
func labelIdent(e ast.Expr) *ast.Ident {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// enclosingFunc finds the innermost function declaration or literal in
// the stack and returns it with its body.
func enclosingFunc(stack []ast.Node) (ast.Node, *ast.BlockStmt) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f, f.Body
		case *ast.FuncLit:
			return f, f.Body
		}
	}
	return nil, nil
}

// topLevelStmt returns the statement of body directly containing node.
func topLevelStmt(body *ast.BlockStmt, node ast.Node) ast.Stmt {
	for _, s := range body.List {
		if s.Pos() <= node.Pos() && node.End() <= s.End() {
			return s
		}
	}
	return nil
}

// stmtIndex returns s's index in body.
func stmtIndex(body *ast.BlockStmt, s ast.Stmt) int {
	for i, st := range body.List {
		if st == s {
			return i
		}
	}
	return len(body.List)
}

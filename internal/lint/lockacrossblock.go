package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockAcrossBlock flags a sync.Mutex or sync.RWMutex held across a
// blocking operation: an mpi.Comm collective, a channel send/receive, a
// select with no default, or a network call. This is the
// elastic-eviction deadlock shape from He & Smelyanskiy (arXiv
// 1606.00511): the master blocks in a collective while holding the
// state lock, a worker dies, the eviction path needs that same lock to
// rewrite the rank table, and the job hangs instead of healing.
//
// Detection is lexical within one statement list: after `mu.Lock()` (or
// `mu.RLock()`), statements up to the matching `mu.Unlock()` are the
// critical section; a `defer mu.Unlock()` extends it to the end of the
// list. Function literals inside the section are skipped (they run on
// their own goroutine or later, outside the lock), and sync.Cond.Wait
// is exempt by design — it releases the lock while blocked.
//
// Findings are errors: when the block is provably bounded (a write
// deadline armed on the connection, say), record that justification
// with //lint:ignore lockacrossblock.
type LockAcrossBlock struct{}

// Name implements Analyzer.
func (LockAcrossBlock) Name() string { return "lockacrossblock" }

// Doc implements Analyzer.
func (LockAcrossBlock) Doc() string {
	return "sync.Mutex/RWMutex held across a blocking mpi collective, channel " +
		"operation, or network call; blocking under lock deadlocks eviction"
}

// Run implements Analyzer.
func (l LockAcrossBlock) Run(p *Package) []Finding {
	var out []Finding
	p.inspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		var list []ast.Stmt
		switch s := n.(type) {
		case *ast.BlockStmt:
			list = s.List
		case *ast.CaseClause:
			list = s.Body
		case *ast.CommClause:
			list = s.Body
		default:
			return true
		}
		out = append(out, l.scanList(p, list)...)
		return true
	})
	return out
}

// scanList finds critical sections in one statement list and reports
// blocking operations inside them. Nested lists are handled by their
// own inspectWithStack visit, so the scan here stays shallow except for
// the expression walk inside each guarded statement.
func (l LockAcrossBlock) scanList(p *Package, list []ast.Stmt) []Finding {
	var out []Finding
	for i := 0; i < len(list); i++ {
		key, kind := lockStmt(p, list[i])
		if key == "" {
			continue
		}
		deferred := false
		for j := i + 1; j < len(list); j++ {
			if isDeferUnlock(p, list[j], key, kind) {
				deferred = true
				continue
			}
			if isUnlock(p, list[j], key, kind) && !deferred {
				break
			}
			out = append(out, l.blockingIn(p, list[j], key)...)
		}
	}
	return out
}

// blockingIn reports every blocking operation under stmt, pruning
// function literals (deferred/spawned bodies run outside the lock as
// far as this lexical analysis can tell).
func (l LockAcrossBlock) blockingIn(p *Package, stmt ast.Stmt, key string) []Finding {
	var out []Finding
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			out = append(out, p.finding(l, SevError, b,
				"channel send while holding %s; the send can block forever under lock", key))
		case *ast.UnaryExpr:
			if b.Op == token.ARROW {
				out = append(out, p.finding(l, SevError, b,
					"channel receive while holding %s; the receive can block forever under lock", key))
			}
		case *ast.SelectStmt:
			if !selectHasDefault(b) {
				out = append(out, p.finding(l, SevError, b,
					"select with no default while holding %s; all arms can block under lock", key))
			}
			return false // arms already covered by the select finding
		case *ast.CallExpr:
			if desc := blockingCallDesc(p, b); desc != "" {
				out = append(out, p.finding(l, SevError, b,
					"%s while holding %s; a blocked call under lock is the eviction deadlock shape", desc, key))
			}
		}
		return true
	})
	return out
}

// lockStmt reports whether stmt is `key.Lock()` or `key.RLock()` on a
// sync.Mutex/RWMutex, returning the receiver path and the lock kind
// ("Lock" or "RLock", used to match the corresponding unlock).
func lockStmt(p *Package, stmt ast.Stmt) (key, kind string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	call, ok := unparen(es.X).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	fn := p.calleeFunc(call)
	if fn == nil || pkgPath(fn) != "sync" {
		return "", ""
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return "", ""
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return exprPath(sel.X), fn.Name()
}

// isUnlock reports whether stmt is the unlock matching a Lock/RLock on
// the same receiver path.
func isUnlock(p *Package, stmt ast.Stmt, key, kind string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	return isUnlockCall(p, es.X, key, kind)
}

// isDeferUnlock reports whether stmt is `defer key.Unlock()` for the
// matching lock kind.
func isDeferUnlock(p *Package, stmt ast.Stmt, key, kind string) bool {
	ds, ok := stmt.(*ast.DeferStmt)
	if !ok {
		return false
	}
	return isUnlockCall(p, ds.Call, key, kind)
}

func isUnlockCall(p *Package, e ast.Expr, key, kind string) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := p.calleeFunc(call)
	if fn == nil || pkgPath(fn) != "sync" {
		return false
	}
	want := "Unlock"
	if kind == "RLock" {
		want = "RUnlock"
	}
	if fn.Name() != want {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	return ok && exprPath(sel.X) == key
}

// exprPath renders a selector chain (a, a.b, a.b.c) as a stable string
// for matching lock/unlock receivers; non-chain expressions return "".
func exprPath(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// selectHasDefault reports whether a select statement has a default
// clause (making it non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// mpiBlocking is the set of mpi.Comm/Transport methods that block on a
// peer: collectives synchronize every rank, point-to-point sends and
// receives wait for the other side.
var mpiBlocking = map[string]bool{
	"Bcast": true, "Reduce": true, "Barrier": true,
	"SendBytes": true, "RecvBytes": true, "RecvBytesTimeout": true,
	"SendF32": true, "RecvF32": true,
	"Send": true, "Recv": true, "RecvTimeout": true,
}

// netBlocking is the set of package-net functions and methods that wait
// on the network.
var netBlocking = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true,
	"Accept": true, "AcceptTCP": true,
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
}

// httpBlocking is the set of net/http calls that wait on a round trip
// or run a serve loop.
var httpBlocking = map[string]bool{
	"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true,
	"Serve": true, "ServeTLS": true, "ListenAndServe": true, "ListenAndServeTLS": true,
}

// blockingCallDesc classifies a call as blocking, returning a short
// description for the finding message ("" when not blocking).
func blockingCallDesc(p *Package, call *ast.CallExpr) string {
	fn := p.calleeFunc(call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch path := pkgPath(fn); {
	case path == "net" && netBlocking[name]:
		return "net." + name + " call"
	case path == "net/http" && httpBlocking[name]:
		return "net/http." + name + " call"
	}
	if !mpiBlocking[name] {
		return ""
	}
	if recvNamed := recvTypeName(fn); recvNamed == "Comm" || recvNamed == "Transport" {
		return "mpi." + name + " collective/transfer"
	}
	return ""
}

// recvTypeName returns the named type of fn's receiver ("" for plain
// functions or unnamed receivers).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

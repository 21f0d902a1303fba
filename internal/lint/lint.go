// Package lint is a repo-specific static-analysis engine built entirely
// on the standard library's go/parser, go/ast and go/types. It exists
// because the trainer's correctness rests on invariants that generic
// linters do not know about: every mpi.Comm collective participates in a
// bitwise-deterministic reduction (a dropped error desynchronizes the
// ranks), float equality silently breaks HF convergence checks, and the
// observability layer's nil-safety contract must be entered through its
// accessor methods, not raw field access.
//
// The engine loads the module from source (no go.mod dependencies, no
// export data), type-checks it with go/types, and runs a set of
// Analyzers over each package. Findings carry file:line:col positions
// relative to the module root so output is stable across machines, and
// the cmd/repolint CLI renders them as text or machine-readable JSON.
//
// Suppression: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or the line above it silences those analyzers
// for that line. A reason is required by convention; the directive is
// how intentional exceptions (e.g. the BLAS alpha==0 fast-path sentinel)
// are recorded in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Severity classifies a finding. Errors are invariant violations that
// can corrupt a run; warnings are hazards that need a justification.
type Severity string

const (
	// SevWarn marks hazards that are sometimes legitimate (and then must
	// carry a //lint:ignore justification).
	SevWarn Severity = "warn"
	// SevError marks violations that are never legitimate in this repo.
	SevError Severity = "error"
)

// Finding is one analyzer report, positioned at a source location. File
// is slash-separated and relative to the load root, so JSON output is
// byte-stable across checkouts.
type Finding struct {
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one repo-specific check run over a type-checked package.
type Analyzer interface {
	// Name is the analyzer's identifier, used in output and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why it matters for the HF trainer.
	Doc() string
	// Run inspects one package and returns its findings (unsuppressed
	// filtering is the runner's job).
	Run(p *Package) []Finding
}

// Analyzers returns the full repo suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		UncheckedErr{},
		FloatEq{},
		HotPathAlloc{},
		ObsNilGuard{},
		MapOrderFloat{},
		ReduceOrder{},
		RngSource{},
		DivGuard{},
		GoroutineLeak{},
		LockAcrossBlock{},
	}
}

// finding is the helper analyzers use to build a Finding at a node.
func (p *Package) finding(a Analyzer, sev Severity, node ast.Node, format string, args ...any) Finding {
	pos := p.Fset.Position(node.Pos())
	file := pos.Filename
	if rel, err := filepath.Rel(p.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return Finding{
		Analyzer: a.Name(),
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
		File:     filepath.ToSlash(file),
		Line:     pos.Line,
		Col:      pos.Column,
	}
}

// ignoreDirectives maps analyzer name → set of suppressed lines for one
// file, built from //lint:ignore comments.
type ignoreDirectives map[string]map[int]bool

// parseIgnores collects //lint:ignore directives from a file. Each
// directive suppresses the named analyzers on its own line and the line
// directly below it (covering both trailing and preceding placement).
func parseIgnores(fset *token.FileSet, f *ast.File) ignoreDirectives {
	dirs := ignoreDirectives{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.Split(fields[0], ",") {
				if dirs[name] == nil {
					dirs[name] = map[int]bool{}
				}
				dirs[name][line] = true
				dirs[name][line+1] = true
			}
		}
	}
	return dirs
}

// hotPathDirective marks functions whose bodies must stay allocation- and
// formatting-free (the BLAS micro-kernels and the CG inner step).
const hotPathDirective = "lint:hotpath"

// isHotPath reports whether fn's doc comment carries //lint:hotpath.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotPathDirective) {
			return true
		}
	}
	return false
}

// Result is a full engine run: every loaded package's findings, sorted
// by position, plus non-fatal load diagnostics.
type Result struct {
	Findings []Finding
	// Packages holds every package analyzed, in import-path order.
	Packages []*Package
	// LoadWarnings records packages or imports the loader could not
	// fully resolve; analysis proceeded with partial type information.
	LoadWarnings []string
	// Timings accumulates each analyzer's total Run time across all
	// packages, keyed by analyzer name (repolint -v reports it).
	Timings map[string]time.Duration
}

// Run loads the module rooted at root and applies the analyzers to every
// package in it.
func Run(root string, analyzers []Analyzer) (*Result, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	return analyze(l, pkgs, analyzers), nil
}

// RunDir loads the module rooted at root for import resolution, then
// analyzes only the single package in dir (used by the golden-file
// fixture tests, whose packages live under testdata and are invisible to
// the normal module walk).
func RunDir(root, dir string, analyzers []Analyzer) (*Result, error) {
	return RunDirs(root, []string{dir}, analyzers)
}

// RunDirs is RunDir for several fixture packages sharing one loader (and
// therefore one pass over the standard library's sources).
func RunDirs(root string, dirs []string, analyzers []Analyzer) (*Result, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(abs, "fixture/"+filepath.Base(abs))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return analyze(l, pkgs, analyzers), nil
}

// analyze fans the analyzers out over the packages — one goroutine per
// package, bounded by GOMAXPROCS — applies //lint:ignore suppression,
// and returns findings in deterministic order: analysis is read-only on
// type-checked packages and analyzers are stateless value types, so the
// only shared state is the result set, and the final sort erases
// scheduling order.
func analyze(l *Loader, pkgs []*Package, analyzers []Analyzer) *Result {
	res := &Result{Packages: pkgs, LoadWarnings: l.Warnings(), Timings: map[string]time.Duration{}}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for _, p := range pkgs {
		wg.Add(1)
		go func(p *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ignores := make([]ignoreDirectives, len(p.Files))
			for i, f := range p.Files {
				ignores[i] = parseIgnores(p.Fset, f)
			}
			for _, a := range analyzers {
				start := time.Now()
				found := a.Run(p)
				elapsed := time.Since(start)
				mu.Lock()
				res.Timings[a.Name()] += elapsed
				for _, f := range found {
					if !suppressed(p, ignores, f) {
						res.Findings = append(res.Findings, f)
					}
				}
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res
}

// suppressed reports whether an //lint:ignore directive covers f.
func suppressed(p *Package, ignores []ignoreDirectives, f Finding) bool {
	for i, file := range p.Files {
		name := p.Fset.Position(file.Pos()).Filename
		rel, err := filepath.Rel(p.root, name)
		if err != nil {
			rel = name
		}
		if filepath.ToSlash(rel) != f.File {
			continue
		}
		return ignores[i][f.Analyzer][f.Line]
	}
	return false
}

// --- shared type helpers used by multiple analyzers ---

// unparen strips any number of parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// calleeFunc resolves the function or method object a call invokes, or
// nil for conversions, builtins, and calls through function values.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// pkgPath returns the declaring package path of obj ("" for builtins and
// universe-scope objects).
func pkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == nil && obj.Name() == "error"
}

// inspectWithStack walks every file of p, calling fn with each node and
// the stack of its ancestors (outermost first, not including n itself).
// Returning false from fn prunes the subtree.
func (p *Package) inspectWithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, file := range p.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			ok := fn(n, stack)
			if ok {
				stack = append(stack, n)
			}
			return ok
		})
	}
}

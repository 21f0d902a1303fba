// Command repolint runs the repo-specific static-analysis suite of
// internal/lint over the module — unchecked MPI/IO errors, float
// equality, allocations in //lint:hotpath kernels, unguarded
// obs.Observer field access, the determinism quartet (maporderfloat,
// reduceorder, rngsource, divguard) and the concurrency-lifecycle pair
// (goroutineleak, lockacrossblock) — plus the two compiler-truth gates:
// escape, which compiles hot-path packages with -gcflags=-m=2 and fails
// any //lint:hotpath function containing a compiler-reported heap
// escape, and bce, which compiles them with -gcflags=-d=ssa/check_bce
// and fails any hot function still carrying a bounds check.
//
// Usage:
//
//	repolint [-C dir] [-json|-sarif] [-v] [-only name,...]
//	repolint -list
//
// Without flags it lints the module containing the current directory and
// prints findings as file:line:col text. -json emits the stable
// machine-readable schema (version 2) consumed by tooling; -sarif emits
// SARIF 2.1.0 for code-scanning upload; -only restricts the run to the
// named analyzers (e.g. `-only floateq`, or `-only escape,bce` for the
// two compiler-truth gates alone); -list documents
// the analyzers; -v reports load warnings and per-analyzer timing to
// stderr. Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/escape"
)

// jsonReport is the stable -json output schema. Fields are append-only:
// tooling that snapshots this shape must keep decoding as analyzers are
// added, so the version only bumps on incompatible changes. Version 2
// added the top-level errors/warnings severity counts alongside the
// per-finding severity.
type jsonReport struct {
	Version  int            `json:"version"`
	Count    int            `json:"count"`
	Errors   int            `json:"errors"`
	Warnings int            `json:"warnings"`
	Findings []lint.Finding `json:"findings"`
}

// selection is the resolved -only set: analyzers and which
// compiler-truth gates to run.
type selection struct {
	analyzers []lint.Analyzer
	runEscape bool
	runBCE    bool
}

func main() {
	dir := flag.String("C", ".", "lint the module containing this directory")
	asJSON := flag.Bool("json", false, "emit findings as JSON (stable schema)")
	asSARIF := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (code-scanning upload)")
	verbose := flag.Bool("v", false, "print load warnings and per-analyzer timing to stderr")
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all, including the escape and bce gates)")
	flag.Parse()

	if *list {
		writeList(os.Stdout)
		return
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(os.Stderr, "repolint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	sel, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}

	findings := []lint.Finding{}
	timings := map[string]time.Duration{}
	if len(sel.analyzers) > 0 {
		res, err := lint.Run(root, sel.analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
		findings = append(findings, res.Findings...)
		for name, d := range res.Timings {
			timings[name] = d
		}
		if *verbose {
			for _, w := range res.LoadWarnings {
				fmt.Fprintln(os.Stderr, "repolint: warning:", w)
			}
			fmt.Fprintf(os.Stderr, "repolint: analyzed %d packages\n", len(res.Packages))
		}
	}
	gates := []struct {
		run  bool
		name string
		fn   func(string) ([]lint.Finding, error)
	}{
		{sel.runEscape, escape.Name, escape.Analyze},
		{sel.runBCE, escape.BCEName, escape.AnalyzeBCE},
	}
	for _, g := range gates {
		if !g.run {
			continue
		}
		start := time.Now()
		gateFindings, err := g.fn(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
		timings[g.name] = time.Since(start)
		findings = append(findings, gateFindings...)
	}
	sortFindings(findings)
	if *verbose {
		printTimings(os.Stderr, timings)
	}

	switch {
	case *asJSON:
		if err := writeJSON(os.Stdout, buildReport(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	case *asSARIF:
		if err := writeSARIF(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			os.Exit(2)
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s [%s]\n", f, f.Severity)
		}
		if n := len(findings); n > 0 {
			fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", n)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// writeList renders the -list catalog: every analyzer name the -only
// flag accepts (the suite, then the compiler-truth gates) with its
// one-line doc. The snapshot test locks this output, so adding an
// analyzer deliberately updates the documented surface.
func writeList(w io.Writer) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "%-16s %s\n", a.Name(), a.Doc())
	}
	fmt.Fprintf(w, "%-16s %s\n", escape.Name, escape.Doc)
	fmt.Fprintf(w, "%-16s %s\n", escape.BCEName, escape.BCEDoc)
}

// selectAnalyzers resolves a -only list against the suite and the
// "escape"/"bce" gates, which are not lint.Analyzers (they run the
// compiler) but share the name namespace, preserving the suite's stable
// order; an empty list selects everything including both gates.
func selectAnalyzers(only string) (selection, error) {
	all := lint.Analyzers()
	if only == "" {
		return selection{analyzers: all, runEscape: true, runBCE: true}, nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	sel := selection{runEscape: want[escape.Name], runBCE: want[escape.BCEName]}
	delete(want, escape.Name)
	delete(want, escape.BCEName)
	for _, a := range all {
		if want[a.Name()] {
			sel.analyzers = append(sel.analyzers, a)
			delete(want, a.Name())
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return selection{}, fmt.Errorf("unknown analyzer(s) %s (see repolint -list)", strings.Join(unknown, ", "))
	}
	if len(sel.analyzers) == 0 && !sel.runEscape && !sel.runBCE {
		return selection{}, fmt.Errorf("-only selected no analyzers")
	}
	return sel, nil
}

// sortFindings restores position order after merging the analyzer and
// escape-gate result sets.
func sortFindings(fs []lint.Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
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
}

// printTimings renders per-analyzer cumulative Run time, slowest first,
// to the -v stream (stderr, so -json stdout stays byte-stable).
func printTimings(w io.Writer, timings map[string]time.Duration) {
	names := make([]string, 0, len(timings))
	for n := range timings {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if timings[names[i]] != timings[names[j]] {
			return timings[names[i]] > timings[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "repolint: timing %-16s %s\n", n, timings[n].Round(10*time.Microsecond))
	}
}

// buildReport wraps findings in the versioned -json schema. Findings is
// never null, so a clean run still renders `"findings": []` and piping
// through `jq '.findings[]'` works unconditionally.
func buildReport(findings []lint.Finding) jsonReport {
	if findings == nil {
		findings = []lint.Finding{}
	}
	r := jsonReport{Version: 2, Count: len(findings), Findings: findings}
	for _, f := range findings {
		switch f.Severity {
		case lint.SevError:
			r.Errors++
		case lint.SevWarn:
			r.Warnings++
		}
	}
	return r
}

// writeJSON renders the report with the fixed two-space indentation the
// snapshot test locks in.
func writeJSON(w io.Writer, report jsonReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

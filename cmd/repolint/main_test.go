package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden -json snapshot")

// TestJSONSchemaSnapshot locks the -json output schema (version 2). It
// lints the uncheckederr golden fixture and compares the rendered report
// byte-for-byte against testdata/report.golden.json, so any change to
// field names, ordering, indentation or position encoding shows up as a
// reviewable diff. Regenerate deliberately with `go test -update`.
func TestJSONSchemaSnapshot(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.RunDir(root, filepath.Join(root, "internal/lint/testdata/src/uncheckederr"), lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, buildReport(res.Findings)); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from the golden snapshot (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSelectAnalyzers pins the -only flag: names resolve in suite
// order, unknown names fail, empty selects everything plus both
// compiler-truth gates.
func TestSelectAnalyzers(t *testing.T) {
	sel, err := selectAnalyzers("")
	if err != nil || len(sel.analyzers) != len(lint.Analyzers()) || !sel.runEscape || !sel.runBCE {
		t.Fatalf("selectAnalyzers(\"\") = %d analyzers, escape %v, bce %v, err %v; want the full suite",
			len(sel.analyzers), sel.runEscape, sel.runBCE, err)
	}
	sel, err = selectAnalyzers("floateq")
	if err != nil || len(sel.analyzers) != 1 || sel.analyzers[0].Name() != "floateq" || sel.runEscape || sel.runBCE {
		t.Fatalf("selectAnalyzers(floateq) = %+v, err %v", sel, err)
	}
	sel, err = selectAnalyzers("obsnilguard, floateq")
	if err != nil || len(sel.analyzers) != 2 {
		t.Fatalf("selectAnalyzers(two) = %+v, err %v", sel, err)
	}
	if _, err = selectAnalyzers("nosuchanalyzer"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	// The numcheck quartet resolves as a group, in suite order
	// regardless of request order.
	sel, err = selectAnalyzers("divguard,maporderfloat,reduceorder,rngsource")
	if err != nil || len(sel.analyzers) != 4 {
		t.Fatalf("selectAnalyzers(numcheck quartet) = %+v, err %v", sel, err)
	}
	want := []string{"maporderfloat", "reduceorder", "rngsource", "divguard"}
	for i, a := range sel.analyzers {
		if a.Name() != want[i] {
			t.Errorf("numcheck quartet[%d] = %s, want %s (suite order)", i, a.Name(), want[i])
		}
	}
	// The concurrency pair is part of the suite.
	sel, err = selectAnalyzers("goroutineleak,lockacrossblock")
	if err != nil || len(sel.analyzers) != 2 {
		t.Fatalf("selectAnalyzers(concurrency pair) = %+v, err %v", sel, err)
	}
	// The compiler-truth gates resolve alone and alongside analyzers.
	sel, err = selectAnalyzers("escape,bce")
	if err != nil || len(sel.analyzers) != 0 || !sel.runEscape || !sel.runBCE {
		t.Fatalf("selectAnalyzers(escape,bce) = %+v, err %v", sel, err)
	}
	sel, err = selectAnalyzers("escape,hotpathalloc")
	if err != nil || len(sel.analyzers) != 1 || sel.analyzers[0].Name() != "hotpathalloc" || !sel.runEscape || sel.runBCE {
		t.Fatalf("selectAnalyzers(escape,hotpathalloc) = %+v, err %v", sel, err)
	}
	// The nine analyzers the DESIGN.md §11 audit retired are gone from
	// the -only surface too: no alias keeps a dead name selectable.
	for _, name := range []string{"shape", "locksbyvalue", "deferinloop", "tickerstop", "commcheck",
		"tagspace", "opproto", "sendrecvpair", "deprecatedapi"} {
		if _, err = selectAnalyzers(name); err == nil {
			t.Errorf("retired analyzer %q still selectable", name)
		}
	}
}

// TestListSnapshot locks the -list catalog against a golden file: the
// full analyzer name set in suite order with one-line docs. Adding or
// renaming an analyzer must update testdata/list.golden (regenerate with
// `go test -update`) so the documented -only surface stays reviewed.
func TestListSnapshot(t *testing.T) {
	var buf bytes.Buffer
	writeList(&buf)

	golden := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-list output drifted from the golden snapshot (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSARIFSnapshot locks the -sarif output shape against a golden
// file, using the same uncheckederr fixture findings as the JSON
// snapshot so the two formats stay in lockstep. Regenerate deliberately
// with `go test -update`.
func TestSARIFSnapshot(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.RunDir(root, filepath.Join(root, "internal/lint/testdata/src/uncheckederr"), lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, res.Findings); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden.sarif")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-sarif output drifted from the golden snapshot (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSARIFCleanRun ensures a finding-free SARIF log still carries the
// schema header, the full rule table, and an empty (never null) results
// array.
func TestSARIFCleanRun(t *testing.T) {
	log := buildSARIF(nil)
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("log = %+v, want one 2.1.0 run", log)
	}
	run := log.Runs[0]
	if run.Results == nil || len(run.Results) != 0 {
		t.Errorf("clean run results = %#v, want empty non-nil", run.Results)
	}
	wantRules := len(lint.Analyzers()) + 2
	if len(run.Tool.Driver.Rules) != wantRules {
		t.Errorf("rule table has %d entries, want %d (suite + escape + bce)", len(run.Tool.Driver.Rules), wantRules)
	}
	ids := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ids[r.ID] = true
	}
	for _, want := range []string{"uncheckederr", "escape", "bce"} {
		if !ids[want] {
			t.Errorf("rule table missing %s", want)
		}
	}
	var buf bytes.Buffer
	if err := writeSARIF(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("clean SARIF renders results as null:\n%s", buf.String())
	}
}

// TestSARIFLevelMapping pins the severity → SARIF level mapping.
func TestSARIFLevelMapping(t *testing.T) {
	if got := sarifLevel(lint.SevError); got != "error" {
		t.Errorf("sarifLevel(error) = %q", got)
	}
	if got := sarifLevel(lint.SevWarn); got != "warning" {
		t.Errorf("sarifLevel(warn) = %q", got)
	}
}

// TestJSONCleanRun ensures a finding-free report renders findings as an
// empty array, never null, with version, count and severity tallies
// present.
func TestJSONCleanRun(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, buildReport(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version": 2`, `"count": 0`, `"errors": 0`, `"warnings": 0`, `"findings": []`} {
		if !strings.Contains(out, want) {
			t.Errorf("clean report missing %s:\n%s", want, out)
		}
	}
}

// TestReportSeverityTallies pins the v2 errors/warnings counts.
func TestReportSeverityTallies(t *testing.T) {
	r := buildReport([]lint.Finding{
		{Analyzer: "a", Severity: lint.SevError},
		{Analyzer: "b", Severity: lint.SevWarn},
		{Analyzer: "c", Severity: lint.SevError},
	})
	if r.Version != 2 || r.Count != 3 || r.Errors != 2 || r.Warnings != 1 {
		t.Fatalf("report = %+v, want version 2, count 3, errors 2, warnings 1", r)
	}
}

// TestPrintTimings pins the -v timing rendering: slowest analyzer
// first, stable tie-break by name.
func TestPrintTimings(t *testing.T) {
	var buf bytes.Buffer
	printTimings(&buf, map[string]time.Duration{
		"floateq":  2 * time.Millisecond,
		"divguard": 30 * time.Millisecond,
		"escape":   2 * time.Millisecond,
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timing lines = %v", lines)
	}
	wantOrder := []string{"divguard", "escape", "floateq"}
	for i, name := range wantOrder {
		if !strings.Contains(lines[i], name) {
			t.Errorf("timing line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

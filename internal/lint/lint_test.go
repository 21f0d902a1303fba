package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureDirs lists every golden fixture package under testdata/src. The
// clean package is the negative fixture: it exercises the code shapes
// each analyzer inspects in their sanctioned forms and must stay silent.
var fixtureDirs = []string{
	"uncheckederr",
	"floateq",
	"hotpathalloc",
	"obsnilguard",
	"maporderfloat",
	"reduceorder",
	"rngsource",
	"divguard",
	"goroutineleak",
	"lockacrossblock",
	"clean",
}

var (
	fixtureOnce sync.Once
	fixtureRes  *Result
	fixtureErr  error
)

// fixtureResult lints every fixture with one shared loader (loading the
// standard library from source dominates the cost, so the tests split a
// single pass).
func fixtureResult(t *testing.T) *Result {
	t.Helper()
	fixtureOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			fixtureErr = err
			return
		}
		dirs := make([]string, len(fixtureDirs))
		for i, d := range fixtureDirs {
			dirs[i] = filepath.Join(root, "internal/lint/testdata/src", d)
		}
		fixtureRes, fixtureErr = RunDirs(root, dirs, Analyzers())
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixtures: %v", fixtureErr)
	}
	return fixtureRes
}

// TestFixtureFindings is the golden-position test: for each seeded-bad
// fixture it asserts the exact line:col and analyzer of every expected
// finding, and that nothing else fires in that file.
func TestFixtureFindings(t *testing.T) {
	res := fixtureResult(t)

	want := map[string][]string{
		"uncheckederr.go": {
			"14:2 uncheckederr error",
			"15:2 uncheckederr error",
			"16:2 uncheckederr error",
			"17:2 uncheckederr error",
		},
		"floateq.go": {
			"5:5 floateq warn",
			"8:5 floateq warn",
		},
		"hotpathalloc.go": {
			"19:11 hotpathalloc warn",
			"19:22 hotpathalloc warn",
			"21:11 hotpathalloc warn",
			"23:6 hotpathalloc warn",
		},
		"obsnilguard.go": {
			"12:2 obsnilguard error",
			"13:6 obsnilguard error",
			"64:2 obsnilguard error",
			"78:6 obsnilguard error",
			"79:6 obsnilguard error",
			"80:6 obsnilguard error",
		},
		"maporderfloat.go": {
			"10:3 maporderfloat error", // float accumulation in map order
			"24:3 maporderfloat error", // float-carrying slice built in map order
			"38:3 maporderfloat error", // accumulation through a local helper
		},
		"reduceorder.go": {
			"10:3 reduceorder error", // total += <-ch in a counted loop
			"19:3 reduceorder error", // range-over-channel fold
			"35:3 reduceorder error", // fold of a received struct's field
		},
		"rngsource.go": {
			"13:9 rngsource error",  // rand.Float64 (global source)
			"18:9 rngsource error",  // rand.Perm (global source)
			"23:2 rngsource error",  // rand.Seed (global reseed)
			"28:33 rngsource error", // time-derived seed
		},
		"divguard.go": {
			"15:9 divguard warn", // sum / n, both accumulated
			"21:9 divguard warn", // rho shape: actual / predicted
			"27:9 divguard warn", // indexed preconditioner entry
			"32:9 divguard warn", // denominator under math.Abs
		},
		"goroutineleak.go": {
			"16:2 goroutineleak warn", // for{} with no exit in a func literal
			"31:2 goroutineleak warn", // same loop through a named function
			"37:2 goroutineleak warn", // http serve loop with no completion signal
			"46:2 goroutineleak warn", // range over a never-closed channel
		},
		"lockacrossblock.go": {
			"22:2 lockacrossblock error",  // channel send under mu
			"29:12 lockacrossblock error", // channel receive under rw.RLock
			"38:9 lockacrossblock error",  // mpi Reduce under deferred unlock
			"44:2 lockacrossblock error",  // no-default select under mu
			"57:12 lockacrossblock error", // net.Conn.Write under deferred unlock
		},
		"clean.go":     nil,
		"clean_num.go": nil,
	}

	got := map[string][]string{}
	for _, f := range res.Findings {
		base := filepath.Base(f.File)
		got[base] = append(got[base], fmt.Sprintf("%d:%d %s %s", f.Line, f.Col, f.Analyzer, f.Severity))
	}
	for base, wantList := range want {
		if gotList := got[base]; !equalStrings(gotList, wantList) {
			t.Errorf("%s findings:\ngot  %v\nwant %v", base, gotList, wantList)
		}
		delete(got, base)
	}
	for base, extra := range got {
		t.Errorf("unexpected findings in %s: %v", base, extra)
	}
}

// TestIgnoreDirectiveSuppresses pins the //lint:ignore contract: the
// floateq fixture carries a suppressed `a == 1` comparison on line 18
// that must not surface.
func TestIgnoreDirectiveSuppresses(t *testing.T) {
	res := fixtureResult(t)
	for _, f := range res.Findings {
		if filepath.Base(f.File) == "floateq.go" && f.Line == 18 {
			t.Errorf("finding on suppressed line: %s", f)
		}
	}
}

// TestFindingString pins the file:line:col rendering the Makefile and
// editors rely on.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "floateq", Severity: SevWarn, Message: "m", File: "a/b.go", Line: 3, Col: 7}
	if got, want := f.String(), "a/b.go:3:7: floateq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzerMetadata checks the suite is well-formed: unique non-empty
// names (they key //lint:ignore directives) and documented behavior.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		name := a.Name()
		if name == "" || strings.ContainsAny(name, " ,") {
			t.Errorf("analyzer name %q must be non-empty and comma/space-free", name)
		}
		if seen[name] {
			t.Errorf("duplicate analyzer name %q", name)
		}
		seen[name] = true
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", name)
		}
	}
	if len(seen) < 5 {
		t.Errorf("suite has %d analyzers, want at least 5", len(seen))
	}
}

// TestFindModuleRoot checks root discovery walks up to go.mod.
func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "" {
		t.Fatalf("implausible root %q", root)
	}
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot outside any module should fail")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

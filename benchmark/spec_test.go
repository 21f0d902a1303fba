package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameGrammar.MatchString(name) {
			t.Errorf("%s name %q is outside the name grammar", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
		if w.iters < 1 || w.refIters > w.iters {
			t.Errorf("workload %s: iters %d, refIters %d", w.name, w.iters, w.refIters)
		}
	}
	for _, m := range endToEnd {
		check("end-to-end metric", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		check("per-layer metric", m.name)
		if m.layer == "" || m.moves == "" || (m.source != srcProbe && m.source != srcTrace) {
			t.Errorf("%s: layer %q, source %q, moves %q", m.name, m.layer, m.source, m.moves)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitGrammar.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the unit grammar", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	if m := endToEnd[0]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("first end-to-end metric = %+v; the contract wants setup_s, unit s, better lower", m)
	}
}

// TestManifestMatchesSpec keeps BENCHMARK.json, which the driver reads, and
// the tables this program reports from, in step.
func TestManifestMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, the sizes are stated for %d", manifest.RunSeconds, nominalSeconds)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the manifest, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: manifest has %+v, program has %s/%s/%s", kind, i, g, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s metric %s: manifest bound %v, program bound %v", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	same("end-to-end", manifest.EndToEnd, endToEnd, true)
	same("per-layer", manifest.PerLayer, perLayer, false)
}

func TestSizesScaleWithSeconds(t *testing.T) {
	w, _ := findWorkload("hf_classic_tcp_narrow")
	full := sizesFor(w, nominalSeconds)
	if full.iters != 10 || full.twinIters != 5 || full.openN != 500 || full.warm != 100 {
		t.Errorf("nominal sizes = %+v", full)
	}
	tiny := sizesFor(w, 1)
	if tiny.iters != 1 || tiny.twinIters != 1 || sizesFor(workloads[0], nominalSeconds).twinIters != 2 || tiny.openN != 25 || tiny.warm != 5 {
		t.Errorf("1-second sizes = %+v", tiny)
	}
}

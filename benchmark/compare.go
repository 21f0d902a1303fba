package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, one per (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "differs"
	verdictMissing    = "missing"
)

// judge applies a row's own bound to a baseline a and a candidate b. The
// candidate is worse when its median is worse than the baseline's by more
// than the bound (and, where the row has one, by more than its absolute
// floor). Otherwise, if either side's repetitions span more than the
// bound, the row cannot be called unchanged: unresolved.
func judge(a, b e2eRow) string {
	change := b.Median - a.Median
	if a.Better == "higher" {
		change = -change
	}
	if change > a.Bound*math.Abs(a.Median) && change > a.Floor {
		return verdictWorse
	}
	for _, r := range []e2eRow{a, b} {
		if width := r.Max - r.Min; width > a.Bound*math.Abs(r.Median) && width > a.Floor {
			return verdictUnresolved
		}
	}
	return verdictOK
}

func readResults(path string) (resultsFile, error) {
	var res resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints one verdict per end-to-end row of baseline a against
// candidate b, then checks that the exact counts repeat. It returns the
// exit code: 0 only when every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	note := func(v string) string {
		if v != verdictOK {
			code = 1
		}
		return v
	}

	type key struct{ metric, workload string }
	candidates := map[key]e2eRow{}
	for _, r := range b.EndToEnd {
		candidates[key{r.Metric, r.Workload}] = r
	}
	fmt.Fprintf(w, "%-26s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "verdict")
	for _, ra := range a.EndToEnd {
		rb, ok := candidates[key{ra.Metric, ra.Workload}]
		if !ok {
			fmt.Fprintf(w, "%-26s %-14s %14.6g %14s %9s %7s  %s\n", ra.Workload, ra.Metric, ra.Median, "-", "-", "-", note(verdictMissing))
			continue
		}
		fmt.Fprintf(w, "%-26s %-14s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", ra.Workload, ra.Metric, ra.Median, rb.Median,
			100*(rb.Median-ra.Median)/ra.Median, 100*ra.Bound, note(judge(ra, rb)))
	}

	// Exact counts: the two files must agree when they ran the same seed
	// for the same length, or the arithmetic changed.
	//lint:ignore floateq the run length is a flag value copied into the file, not a computed float
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "\nexact counts not compared: seeds %d/%d, seconds %g/%g\n", a.Seed, b.Seed, a.Seconds, b.Seconds)
		return code
	}
	fmt.Fprintf(w, "\n%-26s %-20s %20s %20s  %s\n", "workload", "exact count", "baseline", "candidate", "verdict")
	exact := func(workload, metric string, va, vb float64, found bool) {
		v := verdictOK
		switch {
		case !found:
			v = verdictMissing
		//lint:ignore floateq exact counts must repeat to the last bit; that is the check
		case va != vb:
			v = verdictDiffers
		}
		fmt.Fprintf(w, "%-26s %-20s %20.17g %20.17g  %s\n", workload, metric, va, vb, note(v))
	}
	for _, ra := range a.EndToEnd {
		if ra.Exact {
			rb, ok := candidates[key{ra.Metric, ra.Workload}]
			exact(ra.Workload, ra.Metric, ra.Median, rb.Median, ok)
		}
	}
	layers := map[key]layerRow{}
	for _, r := range b.PerLayer {
		layers[key{r.Metric, r.Workload}] = r
	}
	for _, ra := range a.PerLayer {
		if ra.Exact {
			rb, ok := layers[key{ra.Metric, ra.Workload}]
			exact(ra.Workload, ra.Metric, ra.Value, rb.Value, ok)
		}
	}
	return code
}

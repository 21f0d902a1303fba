package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// resultsFile is what the suite writes and -compare reads.
type resultsFile struct {
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Nproc    int        `json:"nproc"`
	Go       string     `json:"go"`
	Kernel   string     `json:"kernel"`
	Runs     []runRow   `json:"runs"`
	EndToEnd []e2eRow   `json:"end_to_end"`
	PerLayer []layerRow `json:"per_layer"`
}

// runRow records one run the suite made.
type runRow struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

// e2eRow is one end-to-end metric on one workload: the median of the
// untraced repetitions with their extremes, and the bound it is held to.
type e2eRow struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Floor    float64   `json:"floor,omitempty"`
	Exact    bool      `json:"exact,omitempty"`
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Samples  []float64 `json:"samples"`
}

// layerRow is one per-layer metric from a workload's traced run.
type layerRow struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Source   string  `json:"source"`
	Unit     string  `json:"unit"`
	Exact    bool    `json:"exact,omitempty"`
	Value    float64 `json:"value"`
}

// suite runs every workload (or only the named one) suiteReps times
// untraced and once traced, each run in a fresh process exactly as the
// driver starts it, prints every metric by name and writes the results
// file. It returns the process exit code: 1 when any run failed a check.
func suite(only string, seed int64, secs float64, path string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	selected := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", only))
		}
		selected = []workload{w}
	}

	res := resultsFile{Seed: seed, Seconds: secs, Nproc: runtime.NumCPU(), Go: runtime.Version(), Kernel: kernelVersion()}
	code := 0
	for _, w := range selected {
		samples := map[string][]float64{}
		for rep := 0; rep <= suiteReps; rep++ {
			traced := rep == suiteReps
			fmt.Fprintf(os.Stderr, "== %s: run %d of %d (traced=%v)\n", w.name, rep+1, suiteReps+1, traced)
			out, err := spawn(self, w.name, seed, secs, traced)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			res.Runs = append(res.Runs, runRow{Workload: w.name, Traced: traced, Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed})
			if !out.Correct {
				code = 1
			}
			if traced {
				for _, m := range perLayer {
					res.PerLayer = append(res.PerLayer, layerRow{
						Metric: m.name, Workload: w.name, Layer: m.layer, Source: m.source,
						Unit: m.unit, Exact: m.exact, Value: out.Metrics[m.name].Value,
					})
				}
				continue
			}
			for _, m := range endToEnd {
				samples[m.name] = append(samples[m.name], out.Metrics[m.name].Value)
			}
		}
		for _, m := range endToEnd {
			lo, hi := minMax(samples[m.name])
			res.EndToEnd = append(res.EndToEnd, e2eRow{
				Metric: m.name, Workload: w.name, Unit: m.unit, Better: m.better,
				Bound: m.bound, Floor: m.floor, Exact: m.exact,
				Median: median(samples[m.name]), Min: lo, Max: hi, Samples: samples[m.name],
			})
		}
	}

	printResults(res)
	if err := writeJSON(path, res); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "results written to", path)
	return code
}

// spawn makes one run in a child process and decodes its last output line.
// Run waits for the child, so none outlives the suite.
func spawn(self, name string, seed int64, secs float64, traced bool) (*runOutput, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out runOutput
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &out, nil
}

func printResults(res resultsFile) {
	fmt.Printf("seed %d, %g s runs, nproc %d, %s, kernel %s\n\n", res.Seed, res.Seconds, res.Nproc, res.Go, res.Kernel)
	fmt.Printf("%-26s %-14s %14s %14s %14s  %s\n", "workload", "end-to-end", "median", "min", "max", "unit")
	for _, r := range res.EndToEnd {
		fmt.Printf("%-26s %-14s %14.6g %14.6g %14.6g  %s (n=%d)\n", r.Workload, r.Metric, r.Median, r.Min, r.Max, r.Unit, len(r.Samples))
	}
	fmt.Printf("\n%-26s %-36s %14s  %s\n", "workload", "per-layer", "value", "unit")
	for _, r := range res.PerLayer {
		fmt.Printf("%-26s %-36s %14.6g  %s\n", r.Workload, r.Metric, r.Value, r.Unit)
	}
	fmt.Println()
	for _, r := range res.Runs {
		fmt.Printf("%-26s traced=%-5v correct=%-5v attempted=%d failed=%d\n", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Command benchmark measures the real trainer and server end to end and
// layer by layer. See README.md for the workloads, the metrics and how
// they are expected to interact.
//
//	bash benchmark/run.sh -workload hf_serial_wide -seed 1 -seconds 20 -trace 0
//	    one run, as the driver makes it: metrics by name, then one JSON line
//	bash benchmark/run.sh -seed 1 -out benchmark/out/results.json
//	    the suite: every workload 3× untraced and 1× traced, one results file
//	bash benchmark/run.sh -compare a.json b.json
//	    apply each metric's bound to two results files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	seed := flag.Int64("seed", 1, "seed of every generated input")
	name := flag.String("workload", "", "workload to run; alone it makes one run and prints its result line, with -out it restricts the suite")
	secs := flag.Float64("seconds", nominalSeconds, "run length the sizes are scaled to")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
	out := flag.String("out", "", "run the suite and write its results file here")
	compare := flag.Bool("compare", false, "compare two results files given as arguments")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *name != "" && *out == "":
		os.Exit(single(*name, *seed, *secs, *trace != 0))
	default:
		if *secs <= 0 {
			fatal(fmt.Errorf("-seconds must be positive"))
		}
		path := *out
		if path == "" {
			path = filepath.Join(outDir, "results.json")
		}
		os.Exit(suite(*name, *seed, *secs, path))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// single makes one run and prints its result object as the last line of
// standard output. It fails closed: a violated check still prints the
// object, with correct=false, and exits 1.
func single(name string, seed int64, secs float64, trace bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	if secs <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	out, checks, err := run(w, seed, secs, trace)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	printRun(w, out, trace)
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, "FAIL:", c)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

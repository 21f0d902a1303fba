package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// tiny is the smallest run that still trains: a few seconds for all of
// TestCheckpointFlags.
var tiny = []string{"-utterances", "40", "-iters", "2", "-hidden", "8", "-ranks", "3"}

// hftrain runs the command with tiny plus args and returns its log.
func hftrain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var logs bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logs)
	defer log.SetOutput(prev)
	err := run(append(slices.Clone(tiny), args...), io.Discard)
	return logs.String(), err
}

// firstLoss runs a dist training with args and returns its first
// iteration's held-out loss, read from the -metrics file.
func firstLoss(t *testing.T, args ...string) float64 {
	t.Helper()
	metrics := filepath.Join(t.TempDir(), "iters.jsonl")
	if _, err := hftrain(t, append([]string{"-mode", "dist", "-metrics", metrics}, args...)...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Iter int     `json:"iter"`
		Loss float64 `json:"loss"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil || rec.Iter != 1 {
		t.Fatalf("first metrics record %+v: %v", rec, err)
	}
	return rec.Loss
}

// TestCheckpointFlags: -load and -save work in dist mode as in serial
// mode, with or without faults; a saved model loads for serving; a run
// that cannot honour either flag rejects it; and so does a run whose
// topology, sample, criterion, count or corpus flags it would panic on
// or misread.
func TestCheckpointFlags(t *testing.T) {
	dir := t.TempDir()
	serialCk := filepath.Join(dir, "serial.ck")
	tests := []struct {
		name    string
		setup   []string // a run that must succeed first
		args    []string
		wantErr string
		check   func(t *testing.T, logs string)
	}{
		{
			name:  "dist load resumes",
			setup: []string{"-mode", "serial", "-save", serialCk},
			args:  []string{"-mode", "dist", "-load", serialCk},
			check: func(t *testing.T, logs string) {
				if !strings.Contains(logs, "resumed from "+serialCk) {
					t.Errorf("log does not say it resumed:\n%s", logs)
				}
				cold, warm := firstLoss(t), firstLoss(t, "-load", serialCk)
				if cold == warm {
					t.Errorf("first-iteration loss %v with -load equals the cold run's: the checkpoint was ignored", warm)
				}
			},
		},
		{
			name: "dist save without faults",
			args: []string{"-mode", "dist", "-save", filepath.Join(dir, "dist.ck")},
			check: func(t *testing.T, _ string) {
				ck, err := core.LoadCheckpoint(filepath.Join(dir, "dist.ck"))
				if err != nil {
					t.Fatal(err)
				}
				if ck.Iteration != 2 {
					t.Errorf("checkpoint records iteration %d, want 2", ck.Iteration)
				}
				srv, err := serve.New(ck)
				if err != nil {
					t.Fatalf("saved model does not load for serving: %v", err)
				}
				srv.Close()
			},
		},
		{
			name:    "dist load other topology",
			setup:   []string{"-mode", "serial", "-save", filepath.Join(dir, "h8.ck")},
			args:    []string{"-mode", "dist", "-hidden", "12", "-load", filepath.Join(dir, "h8.ck")},
			wantErr: "has topology [100 8 8 8], the flags give [100 12 12 8]",
		},
		{
			name:    "sgd load",
			args:    []string{"-mode", "sgd", "-load", serialCk},
			wantErr: "-load and -save need -mode serial or dist",
		},
		{
			name:    "sgd save",
			args:    []string{"-mode", "sgd", "-save", filepath.Join(dir, "sgd.ck")},
			wantErr: "-load and -save need -mode serial or dist",
		},
		{
			name:    "replay save",
			args:    []string{"-replay-verify", "-save", filepath.Join(dir, "replay.ck")},
			wantErr: "-save does not apply to -replay-verify",
		},
		{
			name:    "negative layers",
			args:    []string{"-layers", "-1"},
			wantErr: "-layers -1",
		},
		{
			name:    "zero hidden with layers",
			args:    []string{"-hidden", "0"},
			wantErr: "-hidden 0",
		},
		{
			name:    "zero sample",
			args:    []string{"-sample", "0"},
			wantErr: "-sample 0",
		},
		{
			name:    "sample above one",
			args:    []string{"-sample", "1.5"},
			wantErr: "-sample 1.5",
		},
		{
			name:    "unknown criterion",
			args:    []string{"-criterion", "ctc"},
			wantErr: `unknown criterion "ctc"`,
		},
		{
			name:    "one state",
			args:    []string{"-states", "1"},
			wantErr: "-states 1",
		},
		{
			name:    "zero iterations",
			args:    []string{"-mode", "serial", "-iters", "0"},
			wantErr: "-iters 0",
		},
		{
			name:    "zero epochs",
			args:    []string{"-mode", "sgd", "-epochs", "0"},
			wantErr: "-epochs 0",
		},
		{
			name:    "fault on a rank the run lacks",
			args:    []string{"-mode", "dist", "-fault-inject", "kill:rank=9"},
			wantErr: `hftrain: -fault-inject event "kill:rank=9" names rank 9; only worker ranks 1..2 of -ranks 3`,
			check:   refusedBeforeCorpus,
		},
		{
			name:    "fault on the master",
			args:    []string{"-mode", "dist", "-fault-inject", "kill:rank=0,epoch=1"},
			wantErr: "names rank 0",
			check:   refusedBeforeCorpus,
		},
		{
			name:    "no held-out utterance",
			args:    []string{"-mode", "serial", "-utterances", "3"},
			wantErr: "-utterances must be ≥ 10",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				if _, err := hftrain(t, tc.setup...); err != nil {
					t.Fatalf("setup: %v", err)
				}
			}
			logs, err := hftrain(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				if tc.check != nil {
					tc.check(t, logs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, logs)
		})
	}
}

// refusedBeforeCorpus fails a usage-error row whose run got as far as
// generating the corpus.
func refusedBeforeCorpus(t *testing.T, logs string) {
	if strings.Contains(logs, "generating corpus") {
		t.Errorf("refused only after generating the corpus:\n%s", logs)
	}
}

// TestDistStdout: a classic dist run prints its result line and no fault
// table, and -max-evictions -1 is the same run with the same stdout; a
// run that may evict also prints the fault table.
func TestDistStdout(t *testing.T) {
	stdout := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		prev := log.Writer()
		log.SetOutput(io.Discard)
		defer log.SetOutput(prev)
		if err := run(append(slices.Clone(tiny), append([]string{"-mode", "dist"}, args...)...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	classic := stdout()
	if !strings.HasPrefix(classic, "distributed HF (") || strings.Count(classic, "\n") != 1 {
		t.Errorf("classic stdout %q, want the one result line", classic)
	}
	if zero := stdout("-max-evictions", "-1"); zero != classic {
		t.Errorf("-max-evictions -1 printed %q, want the classic run's %q", zero, classic)
	}
	if elastic := stdout("-max-evictions", "2"); !strings.Contains(elastic, "elastic fault report: 0 eviction(s), budget 2") {
		t.Errorf("-max-evictions 2 printed %q, want the fault table", elastic)
	}
}

// TestDistMetricsPerRank: an observed dist run prints one metrics table
// per rank, in rank order, so a metric only workers keep (the time each
// waits for the master's next command) reaches stdout under its rank.
func TestDistMetricsPerRank(t *testing.T) {
	var out bytes.Buffer
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	args := append(slices.Clone(tiny), "-mode", "dist", "-metrics", filepath.Join(t.TempDir(), "iters.jsonl"))
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	stdout := out.String()
	at := -1
	for r := 0; r < 3; r++ {
		i := strings.Index(stdout, fmt.Sprintf("metrics, rank %d\n", r))
		if i <= at {
			t.Fatalf("no metrics table for rank %d after rank %d's in stdout:\n%s", r, r-1, stdout)
		}
		at = i
	}
	rank0, workers := stdout[strings.Index(stdout, "metrics, rank 0"):strings.Index(stdout, "metrics, rank 1")], stdout[at:]
	if strings.Contains(rank0, "core.worker.wait_ns") {
		t.Errorf("rank 0's table holds a worker metric:\n%s", rank0)
	}
	if !strings.Contains(workers, "core.worker.wait_ns") {
		t.Errorf("rank 2's table lacks core.worker.wait_ns:\n%s", workers)
	}
}

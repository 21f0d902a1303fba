//go:build checked

package core

import (
	"testing"

	"repro/internal/check"
)

// TestReplayVerifyTCPGranular exercises the replay gate over the
// localhost TCP fabric with fine-grained CG hashing compiled in
// (check.Replay): every curvature application on the real socket
// transport must be bit-identical across two seeded runs.
func TestReplayVerifyTCPGranular(t *testing.T) {
	if !check.Replay {
		t.Fatal("checked build tag not in effect")
	}
	p := testProblem(t, CrossEntropy)
	rep, err := ReplayVerify(p, replayConfig(2), 3, nil, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergent {
		t.Fatalf("seeded TCP replay diverged: %s", rep.Detail)
	}
	// Granular mode records each CG application on top of the
	// per-iteration summaries, so there must be strictly more records
	// than iterations can account for without it (≥2 per CG step).
	if rep.Runs[0].Records <= 4*rep.Iterations {
		t.Errorf("only %d records for %d iterations; granular CG hashing seems inactive",
			rep.Runs[0].Records, rep.Iterations)
	}
}

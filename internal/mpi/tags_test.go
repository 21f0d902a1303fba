package mpi

import "testing"

// TestReservedTagPlan pins the static tag plan of the mpi package. The
// tagspace analyzer (internal/lint) proves the *uses* are collision-free,
// but constants that only reach a tag position through a config field
// (DefaultHeartbeatTag via FaultPolicy.HeartbeatTag) are invisible to it,
// so the values themselves are pinned here: perturbing any reserved tag
// constant must fail this test before it can silently alias another
// protocol's traffic.
func TestReservedTagPlan(t *testing.T) {
	// Collective bases: one 2²⁴-wide block each, starting at 1<<24 so
	// block 0 stays free for user tags. Blocks 3, 4, 6 and 7 are free:
	// their collectives had no caller and were deleted.
	bases := []struct {
		name       string
		tag, block int
	}{
		{"tagBcast", tagBcast, 1},
		{"tagReduce", tagReduce, 2},
		{"tagBarrier", tagBarrier, 5},
	}
	for _, b := range bases {
		if want := b.block << 24; b.tag != want {
			t.Errorf("%s = %d, want %d (block %d)", b.name, b.tag, want, b.block)
		}
	}

	// Heartbeat pings use a round-offset block of their own, above every
	// collective block and directly above the elastic reply block
	// (16<<24, internal/core) so round offsets below 2²⁴ cannot cross.
	if DefaultHeartbeatTag != 17<<24 {
		t.Errorf("DefaultHeartbeatTag = %d, want %d", DefaultHeartbeatTag, 17<<24)
	}

	// Telemetry-plane tags live in the user space (below 1<<24), above
	// the trainer's shard/async tags (9000-9105) and the elastic command
	// tag (9500).
	if TagClockSync != 9600 {
		t.Errorf("TagClockSync = %d, want 9600", TagClockSync)
	}
	if TagTelemetry != 9601 {
		t.Errorf("TagTelemetry = %d, want 9601", TagTelemetry)
	}
	for _, tag := range []int{TagClockSync, TagTelemetry} {
		if tag >= tagBcast {
			t.Errorf("telemetry tag %d collides with the collective blocks (>= %d)", tag, tagBcast)
		}
	}
}

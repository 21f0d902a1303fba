package mpi

import (
	"sort"
	"testing"
)

// TestTagPlan is the module's one tag-plan test. Two rows with one
// value do not compile (duplicate key in tagPlan's literal); what is
// left to a test is that each value is the one the wire has always
// used, that a point tag stays below the blocks, that no row's
// [tag, tag+width) range reaches into another's, and that every row has
// its own name.
func TestTagPlan(t *testing.T) {
	pins := map[int]int{
		TagShard:      9000,
		TagAsyncGrad:  9100,
		TagAsyncPull:  9101,
		TagAsyncParam: 9102,
		TagAsyncDone:  9103,
		TagAsyncFinal: 9104,
		TagAsyncEval:  9105,
		TagStarCmd:    9500,
		TagClockSync:  9600,
		TagTelemetry:  9601,
		TagServeReq:   9700,
		TagServeRes:   9701,
		tagBcast:      1 << 24,
		tagReduce:     2 << 24,
		tagBarrier:    5 << 24,
		TagStarReply:  16 << 24,
		TagHeartbeat:  17 << 24,
	}
	if len(pins) != len(tagPlan) {
		t.Errorf("%d tags pinned, %d in the plan: every row is pinned here", len(pins), len(tagPlan))
	}
	tags := make([]int, 0, len(tagPlan))
	names := map[string]int{}
	for tag, row := range tagPlan {
		tags = append(tags, tag)
		if want, ok := pins[tag]; !ok || tag != want {
			t.Errorf("%s = %d, want %d (pinned %v)", row.name, tag, want, ok)
		}
		if prev, dup := names[row.name]; dup || row.name == "" {
			t.Errorf("tag %d: name %q is empty or shared with tag %d", tag, row.name, prev)
		}
		names[row.name] = tag
		switch {
		case row.width < 1:
			t.Errorf("%s: width %d", row.name, row.width)
		case row.width == 1 && tag >= tagBlockWidth:
			t.Errorf("%s: point tag %d is inside the blocks (>= %d)", row.name, tag, tagBlockWidth)
		case row.width > 1 && tag < tagBlockWidth:
			t.Errorf("%s: block base %d is inside the point-tag space (< %d)", row.name, tag, tagBlockWidth)
		}
	}
	sort.Ints(tags)
	for i, tag := range tags[1:] {
		prev := tags[i]
		if end := prev + tagPlan[prev].width; end > tag {
			t.Errorf("%s [%d, %d) overlaps %s at %d", tagPlan[prev].name, prev, end, tagPlan[tag].name, tag)
		}
	}
}

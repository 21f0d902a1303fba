package corpus

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, NumUtterances: 10}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Utts) != len(b.Utts) {
		t.Fatal("different utterance counts")
	}
	for i := range a.Utts {
		ua, ub := a.Utts[i], b.Utts[i]
		if ua.NumFrames() != ub.NumFrames() || ua.Speaker != ub.Speaker {
			t.Fatalf("utterance %d differs", i)
		}
		for f := 0; f < ua.NumFrames(); f++ {
			if ua.States[f] != ub.States[f] {
				t.Fatalf("states differ at utt %d frame %d", i, f)
			}
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	c := Generate(Config{Seed: 1, NumUtterances: 20, FeatDim: 13, NumStates: 5, Context: 2})
	if len(c.Utts) != 20 {
		t.Fatalf("got %d utterances", len(c.Utts))
	}
	if c.InputDim() != 13*5 {
		t.Fatalf("InputDim = %d, want 65", c.InputDim())
	}
	for _, u := range c.Utts {
		if u.Feats.Cols != 13 {
			t.Fatalf("feat dim %d", u.Feats.Cols)
		}
		if len(u.States) != u.NumFrames() {
			t.Fatal("states length mismatch")
		}
		for _, s := range u.States {
			if s < 0 || s >= 5 {
				t.Fatalf("state %d out of range", s)
			}
		}
		if u.NumFrames() < 8 {
			t.Fatalf("utterance shorter than MinFrames: %d", u.NumFrames())
		}
	}
}

func TestGenerateDurationDistribution(t *testing.T) {
	c := Generate(Config{Seed: 2, NumUtterances: 2000, MeanSeconds: 4})
	mean := float64(c.TotalFrames()) / float64(len(c.Utts)) / 100.0
	if math.Abs(mean-4) > 0.5 {
		t.Fatalf("mean duration %.2f s, want ≈4 s", mean)
	}
	// Variable lengths: min and max should differ substantially.
	min, max := c.Utts[0].NumFrames(), c.Utts[0].NumFrames()
	for _, u := range c.Utts {
		if u.NumFrames() < min {
			min = u.NumFrames()
		}
		if u.NumFrames() > max {
			max = u.NumFrames()
		}
	}
	if float64(max) < 2.5*float64(min) {
		t.Fatalf("lengths not variable enough: min %d max %d", min, max)
	}
}

func TestGenerateTaskIsSeparable(t *testing.T) {
	// A nearest-prototype classifier on per-state frame means should beat
	// chance by a wide margin, confirming the labels carry signal.
	c := Generate(Config{Seed: 3, NumUtterances: 60, NumStates: 6, NoiseStd: 0.3})
	dim := c.FeatDim
	means := make([][]float64, c.NumStates)
	counts := make([]int, c.NumStates)
	for s := range means {
		means[s] = make([]float64, dim)
	}
	for _, u := range c.Utts {
		for f := 0; f < u.NumFrames(); f++ {
			s := u.States[f]
			counts[s]++
			row := u.Feats.Row(f)
			for d := 0; d < dim; d++ {
				means[s][d] += float64(row[d])
			}
		}
	}
	for s := range means {
		if counts[s] == 0 {
			continue
		}
		for d := range means[s] {
			means[s][d] /= float64(counts[s])
		}
	}
	correct, total := 0, 0
	for _, u := range c.Utts {
		for f := 0; f < u.NumFrames(); f++ {
			row := u.Feats.Row(f)
			best, bestDist := -1, math.Inf(1)
			for s := range means {
				if counts[s] == 0 {
					continue
				}
				var dist float64
				for d := 0; d < dim; d++ {
					diff := float64(row[d]) - means[s][d]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = s, dist
				}
			}
			if best == u.States[f] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.7 {
		t.Fatalf("nearest-prototype accuracy %.2f; task not separable", acc)
	}
}

func TestSplit(t *testing.T) {
	c := Generate(Config{Seed: 4, NumUtterances: 40})
	tr, ho := c.Split(10)
	if len(tr.Utts)+len(ho.Utts) != 40 {
		t.Fatal("split lost utterances")
	}
	if len(ho.Utts) != 4 {
		t.Fatalf("held-out size %d, want 4", len(ho.Utts))
	}
	if tr.InputDim() != c.InputDim() || ho.NumStates != c.NumStates {
		t.Fatal("split lost geometry")
	}
}

func TestSplitBadK(t *testing.T) {
	c := Generate(Config{Seed: 4, NumUtterances: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Split(1)
}

func TestSpliceFramesShapeAndEdges(t *testing.T) {
	c := Generate(Config{Seed: 6, NumUtterances: 3, FeatDim: 4, Context: 2})
	x, y := SpliceFrames(c.Utts, c.FeatDim, c.Context)
	if x.Rows != c.TotalFrames() || x.Cols != 4*5 {
		t.Fatalf("splice shape %d×%d", x.Rows, x.Cols)
	}
	if len(y) != x.Rows {
		t.Fatal("targets length mismatch")
	}
	// First frame of the first utterance: left context replicates frame 0.
	u := c.Utts[0]
	row := x.Row(0)
	for w := 0; w < 3; w++ { // offsets -2, -1, 0 all map to frame 0
		for d := 0; d < 4; d++ {
			if row[w*4+d] != u.Feats.At(0, d) {
				t.Fatalf("edge replication wrong at window %d dim %d", w, d)
			}
		}
	}
	// Center of window for an interior frame must be the frame itself.
	if u.NumFrames() > 5 {
		r3 := x.Row(3)
		for d := 0; d < 4; d++ {
			if r3[2*4+d] != u.Feats.At(3, d) {
				t.Fatal("center of context window must be the frame itself")
			}
		}
	}
	if y[0] != u.States[0] {
		t.Fatal("target mismatch")
	}
}

// Property: both partitioners preserve the multiset of utterances.
func TestPartitionPreservesUtterancesProperty(t *testing.T) {
	c := Generate(Config{Seed: 8, NumUtterances: 50})
	f := func(nSeed uint8, sorted bool) bool {
		n := int(nSeed%7) + 1
		var p Partitioner = RoundRobin{}
		if sorted {
			p = SortedGreedy{}
		}
		shards := p.Partition(c.Utts, n)
		if len(shards) != n {
			return false
		}
		seen := map[int]int{}
		for _, s := range shards {
			for _, u := range s {
				seen[u.ID]++
			}
		}
		if len(seen) != len(c.Utts) {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedGreedyBeatsRoundRobin(t *testing.T) {
	c := Generate(Config{Seed: 9, NumUtterances: 400})
	for _, n := range []int{4, 8, 16} {
		rr := MeasureBalance(RoundRobin{}.Partition(c.Utts, n))
		sg := MeasureBalance(SortedGreedy{}.Partition(c.Utts, n))
		if sg.Imbalance > rr.Imbalance {
			t.Fatalf("n=%d: sorted-greedy imbalance %.3f worse than round-robin %.3f",
				n, sg.Imbalance, rr.Imbalance)
		}
		if sg.Imbalance > 1.05 {
			t.Fatalf("n=%d: sorted-greedy imbalance %.3f, want ≤1.05", n, sg.Imbalance)
		}
	}
}

func TestSortedGreedyDeterministic(t *testing.T) {
	c := Generate(Config{Seed: 10, NumUtterances: 60})
	a := SortedGreedy{}.Partition(c.Utts, 5)
	b := SortedGreedy{}.Partition(c.Utts, 5)
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatal("nondeterministic partition sizes")
		}
		for i := range a[w] {
			if a[w][i].ID != b[w][i].ID {
				t.Fatal("nondeterministic partition order")
			}
		}
	}
}

func TestPartitionMoreWorkersThanUtterances(t *testing.T) {
	c := Generate(Config{Seed: 11, NumUtterances: 3})
	shards := SortedGreedy{}.Partition(c.Utts, 8)
	if len(shards) != 8 {
		t.Fatal("shard count")
	}
	nonEmpty := 0
	for _, s := range shards {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("%d non-empty shards, want 3", nonEmpty)
	}
}

func TestPartitionZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RoundRobin{}.Partition(nil, 0)
}

func TestMeasureBalanceEmpty(t *testing.T) {
	b := MeasureBalance(nil)
	if b.Imbalance != 0 || b.MaxFrames != 0 {
		t.Fatalf("empty balance: %+v", b)
	}
	b2 := MeasureBalance([][]*Utterance{nil, nil})
	if b2.Imbalance != 1 || b2.MinFrames != 0 {
		t.Fatalf("all-empty balance: %+v", b2)
	}
}

func TestPartitionerNames(t *testing.T) {
	if (RoundRobin{}).Name() != "round-robin" || (SortedGreedy{}).Name() != "sorted-greedy" {
		t.Fatal("partitioner names wrong")
	}
}

// The distributed trainer ships utterances with encoding/gob (the
// wireShard payloads); a full roundtrip must preserve every field.
func TestUtteranceGobRoundTrip(t *testing.T) {
	c := Generate(Config{Seed: 21, NumUtterances: 5, FeatDim: 6})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.Utts); err != nil {
		t.Fatal(err)
	}
	var got []*Utterance
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.Utts) {
		t.Fatalf("lost utterances: %d vs %d", len(got), len(c.Utts))
	}
	for i, u := range c.Utts {
		g := got[i]
		if g.ID != u.ID || g.Speaker != u.Speaker || g.NumFrames() != u.NumFrames() {
			t.Fatalf("utterance %d metadata lost", i)
		}
		for f := 0; f < u.NumFrames(); f++ {
			if g.States[f] != u.States[f] {
				t.Fatalf("utterance %d states lost", i)
			}
			for d := 0; d < c.FeatDim; d++ {
				if g.Feats.At(f, d) != u.Feats.At(f, d) {
					t.Fatalf("utterance %d features lost", i)
				}
			}
		}
	}
}

func TestGenerateLengthsMatchesDistribution(t *testing.T) {
	cfg := Config{Seed: 22, NumUtterances: 3000, MeanSeconds: 4}
	lengths := GenerateLengths(cfg)
	if len(lengths) != 3000 {
		t.Fatalf("%d lengths", len(lengths))
	}
	var total float64
	for _, l := range lengths {
		if l < 8 {
			t.Fatalf("length %d below MinFrames", l)
		}
		total += float64(l)
	}
	mean := total / 3000 / 100
	if math.Abs(mean-4) > 0.5 {
		t.Fatalf("mean %.2f s, want ≈4", mean)
	}
}

func TestUtterancesFromLengths(t *testing.T) {
	utts := UtterancesFromLengths([]int{5, 10})
	if len(utts) != 2 || utts[0].NumFrames() != 5 || utts[1].NumFrames() != 10 {
		t.Fatalf("wrong wrapping: %v", utts)
	}
	if utts[1].ID != 1 {
		t.Fatal("IDs must be sequential")
	}
	// Feature-less but still partitionable.
	shards := (SortedGreedy{}).Partition(utts, 2)
	if TotalFrames(shards[0])+TotalFrames(shards[1]) != 15 {
		t.Fatal("partition lost frames")
	}
}

// TestShuffleUtterancesDeterministic pins the determinism contract:
// shuffling with equal seeds yields the same permutation, a different
// seed a different one, and the result is always a permutation.
func TestShuffleUtterancesDeterministic(t *testing.T) {
	mk := func() []*Utterance { return UtterancesFromLengths([]int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17}) }
	a, b, c := mk(), mk(), mk()
	ShuffleUtterances(rand.New(rand.NewSource(7)), a)
	ShuffleUtterances(rand.New(rand.NewSource(7)), b)
	ShuffleUtterances(rand.New(rand.NewSource(8)), c)
	sameAsB, sameAsC := true, true
	seen := make(map[int]bool)
	for i := range a {
		sameAsB = sameAsB && a[i].ID == b[i].ID
		sameAsC = sameAsC && a[i].ID == c[i].ID
		seen[a[i].ID] = true
	}
	if !sameAsB {
		t.Error("equal seeds must produce the identical permutation")
	}
	if sameAsC {
		t.Error("seeds 7 and 8 produced the same permutation of 10 elements")
	}
	if len(seen) != 10 {
		t.Errorf("shuffle lost or duplicated utterances: %d distinct IDs", len(seen))
	}
}

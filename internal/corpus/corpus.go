// Package corpus generates synthetic speech-recognition training data and
// implements the utterance partitioning of §V-C of the paper.
//
// The paper trains on 50-hour and 400-hour corpora of spoken utterances
// from thousands of speakers — data we cannot redistribute. This package
// substitutes a synthetic corpus that preserves the properties the paper's
// system actually exercises:
//
//   - utterances of variable length (log-normal durations, ≈4 s mean at
//     100 frames/s), the source of worker load imbalance;
//   - per-frame acoustic feature vectors with a context window, matching
//     the DNN input layout of speech front ends;
//   - per-frame HMM-state targets drawn from a generative segment model,
//     so the classification task is genuinely learnable and training
//     losses behave like the real task's.
package corpus

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Utterance is one spoken utterance: a sequence of acoustic frames with
// per-frame HMM-state targets.
type Utterance struct {
	ID      int
	Speaker int
	// Feats is NumFrames × FeatDim, one acoustic feature vector per frame.
	Feats *tensor.Matrix
	// States holds the target HMM state of each frame.
	States []int
}

// NumFrames returns the utterance length in frames.
func (u *Utterance) NumFrames() int { return u.Feats.Rows }

// Corpus is a set of utterances plus the task geometry.
type Corpus struct {
	Utts      []*Utterance
	FeatDim   int
	NumStates int
	// Context is the number of frames of context on each side spliced into
	// the DNN input: input dimension = FeatDim·(2·Context+1).
	Context int
}

// InputDim returns the DNN input dimension after context splicing.
func (c *Corpus) InputDim() int { return c.FeatDim * (2*c.Context + 1) }

// TotalFrames returns the number of frames across all utterances.
func (c *Corpus) TotalFrames() int { return TotalFrames(c.Utts) }

// TotalFrames returns the number of frames across the given utterances.
func TotalFrames(utts []*Utterance) int {
	n := 0
	for _, u := range utts {
		n += u.NumFrames()
	}
	return n
}

// Config parameterizes synthetic corpus generation. Zero fields take the
// documented defaults.
type Config struct {
	Seed          int64
	NumUtterances int
	NumSpeakers   int     // default max(8, NumUtterances/16)
	MeanSeconds   float64 // mean utterance duration; default 4.0
	SigmaLog      float64 // log-normal shape; default 0.55
	FramesPerSec  int     // default 100
	FeatDim       int     // default 40
	Context       int     // default 4 (9-frame splice)
	NumStates     int     // default 16
	MinFrames     int     // default 8
	NoiseStd      float64 // acoustic noise σ; default 0.45
}

func (cfg Config) filled() Config {
	if cfg.NumUtterances <= 0 {
		cfg.NumUtterances = 64
	}
	if cfg.NumSpeakers <= 0 {
		cfg.NumSpeakers = cfg.NumUtterances / 16
		if cfg.NumSpeakers < 8 {
			cfg.NumSpeakers = 8
		}
	}
	if cfg.MeanSeconds <= 0 {
		cfg.MeanSeconds = 4.0
	}
	if cfg.SigmaLog <= 0 {
		cfg.SigmaLog = 0.55
	}
	if cfg.FramesPerSec <= 0 {
		cfg.FramesPerSec = 100
	}
	if cfg.FeatDim <= 0 {
		cfg.FeatDim = 40
	}
	if cfg.Context < 0 {
		cfg.Context = 0
	} else if cfg.Context == 0 {
		cfg.Context = 4
	}
	if cfg.NumStates <= 0 {
		cfg.NumStates = 16
	}
	if cfg.MinFrames <= 0 {
		cfg.MinFrames = 8
	}
	if cfg.NoiseStd <= 0 {
		cfg.NoiseStd = 0.45
	}
	return cfg
}

// Generate builds a synthetic corpus. The generative model: each HMM state
// has a prototype feature vector; an utterance is a sequence of state
// segments with geometric durations; each frame is its state's prototype
// plus a per-speaker offset plus Gaussian noise. Generation is
// deterministic in cfg.Seed.
func Generate(cfg Config) *Corpus {
	cfg = cfg.filled()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// State prototypes, spread enough to be separable under the noise.
	protos := make([][]float32, cfg.NumStates)
	for s := range protos {
		protos[s] = make([]float32, cfg.FeatDim)
		for d := range protos[s] {
			protos[s][d] = float32(rng.NormFloat64())
		}
	}
	// Mild per-speaker channel offsets.
	speakers := make([][]float32, cfg.NumSpeakers)
	for s := range speakers {
		speakers[s] = make([]float32, cfg.FeatDim)
		for d := range speakers[s] {
			speakers[s][d] = float32(rng.NormFloat64() * 0.2)
		}
	}

	// Utterance durations: log-normal with the requested mean.
	mu := math.Log(cfg.MeanSeconds) - cfg.SigmaLog*cfg.SigmaLog/2
	utts := make([]*Utterance, cfg.NumUtterances)
	for i := range utts {
		seconds := math.Exp(mu + cfg.SigmaLog*rng.NormFloat64())
		frames := int(seconds * float64(cfg.FramesPerSec))
		if frames < cfg.MinFrames {
			frames = cfg.MinFrames
		}
		spk := rng.Intn(cfg.NumSpeakers)
		u := &Utterance{
			ID:      i,
			Speaker: spk,
			Feats:   tensor.NewMatrix(frames, cfg.FeatDim),
			States:  make([]int, frames),
		}
		// Segmental state sequence: geometric segment lengths, mean 12
		// frames, new state uniform at each segment boundary.
		state := rng.Intn(cfg.NumStates)
		for f := 0; f < frames; f++ {
			if rng.Float64() < 1.0/12.0 {
				state = rng.Intn(cfg.NumStates)
			}
			u.States[f] = state
			row := u.Feats.Row(f)
			for d := 0; d < cfg.FeatDim; d++ {
				row[d] = protos[state][d] + speakers[spk][d] + float32(rng.NormFloat64()*cfg.NoiseStd)
			}
		}
		utts[i] = u
	}
	return &Corpus{Utts: utts, FeatDim: cfg.FeatDim, NumStates: cfg.NumStates, Context: cfg.Context}
}

// Split partitions the corpus into train and held-out sets, assigning
// every k-th utterance to held-out (the paper computes the HF loss on a
// held-out set). k must be at least 2.
func (c *Corpus) Split(k int) (train, heldout *Corpus) {
	if k < 2 {
		panic(fmt.Sprintf("corpus: Split k = %d, need ≥ 2", k))
	}
	tr := &Corpus{FeatDim: c.FeatDim, NumStates: c.NumStates, Context: c.Context}
	ho := &Corpus{FeatDim: c.FeatDim, NumStates: c.NumStates, Context: c.Context}
	for i, u := range c.Utts {
		if i%k == k-1 {
			ho.Utts = append(ho.Utts, u)
		} else {
			tr.Utts = append(tr.Utts, u)
		}
	}
	return tr, ho
}

// SpliceFrames materializes the context-windowed DNN input and targets for
// the given utterances: X is totalFrames × InputDim and y holds the state
// target of each row. Frames near utterance edges replicate the boundary
// frame, the standard splicing convention.
func SpliceFrames(utts []*Utterance, featDim, context int) (x *tensor.Matrix, y []int) {
	total := TotalFrames(utts)
	width := 2*context + 1
	x = tensor.NewMatrix(total, featDim*width)
	y = make([]int, total)
	row := 0
	for _, u := range utts {
		n := u.NumFrames()
		for f := 0; f < n; f++ {
			dst := x.Row(row)
			for w := -context; w <= context; w++ {
				src := f + w
				if src < 0 {
					src = 0
				} else if src >= n {
					src = n - 1
				}
				copy(dst[(w+context)*featDim:(w+context+1)*featDim], u.Feats.Row(src))
			}
			y[row] = u.States[f]
			row++
		}
	}
	return x, y
}

// ShuffleUtterances permutes utts in place, deterministically in the
// explicit rng (seed it from configuration). It randomizes utterance
// order ahead of partitioning or splitting without ever touching the
// global math/rand source, so two runs with the same seed shuffle — and
// therefore shard — identically.
func ShuffleUtterances(rng *rand.Rand, utts []*Utterance) {
	rng.Shuffle(len(utts), func(i, j int) {
		utts[i], utts[j] = utts[j], utts[i]
	})
}

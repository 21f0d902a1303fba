package check

// Determinism harness: FNV-1a hashing of the optimizer's float state so
// two runs with the same seed and shard plan can be diffed tensor by
// tensor. The HF optimizer records weights, gradients and CG iterates
// into a HashStream each outer iteration (per-CG-application granularity
// under the checked build tag — see Replay); core.ReplayVerify runs
// a short train twice and reports the first divergent record. Hashing is
// always compiled (it is cheap and allocation-light); only the
// fine-grained CG recording is tag-gated.
//
// Wire format: one record per line,
//
//	iter=<n> tensor=<name> len=<len> fnv=<16-hex-digit hash>
//
// The hash covers the IEEE-754 bit patterns (float32 via
// math.Float32bits, float64 via math.Float64bits), so -0 vs +0 and
// differing NaN payloads — which compare equal or incomparably under
// float semantics — still count as divergence: the contract is
// bit-reproducibility, not approximate equality.

import (
	"fmt"
	"math"
	"sync"
)

// FNV-1a 64-bit parameters (hash/fnv re-implemented over float words so
// the hot loop stays allocation-free).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvWord folds one 64-bit word into an FNV-1a state byte by byte.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// HashF32 returns the FNV-1a hash of x's float32 bit patterns.
func HashF32(x []float32) uint64 {
	h := fnvOffset64
	for _, v := range x {
		h = fnvWord(h, uint64(math.Float32bits(v)))
	}
	return h
}

// HashF64 returns the FNV-1a hash of x's float64 bit patterns.
func HashF64(x []float64) uint64 {
	h := fnvOffset64
	for _, v := range x {
		h = fnvWord(h, math.Float64bits(v))
	}
	return h
}

// HashRecord is one hashed tensor observation.
type HashRecord struct {
	// Iter is the outer HF iteration the tensor belongs to.
	Iter int
	// Tensor names the quantity ("gradient", "cg_final", "theta", ...).
	Tensor string
	// Len is the element count (scalar groups hash as float64 slices).
	Len int
	// Hash is the FNV-1a hash of the element bit patterns.
	Hash uint64
}

// String renders the record in the replay wire format.
func (r HashRecord) String() string {
	return fmt.Sprintf("iter=%d tensor=%s len=%d fnv=%016x", r.Iter, r.Tensor, r.Len, r.Hash)
}

// HashStream collects hash records from one training run. A nil stream
// is a valid no-op sink, so instrumented code needs no nil checks. The
// mutex makes recording safe if hooks ever fire from multiple
// goroutines; within one run records are appended in program order,
// which is exactly the order replay comparison relies on.
type HashStream struct {
	mu   sync.Mutex
	recs []HashRecord
}

// RecordVec hashes a float32 vector into the stream; nil-safe.
func (s *HashStream) RecordVec(iter int, tensor string, x []float32) {
	if s == nil {
		return
	}
	rec := HashRecord{Iter: iter, Tensor: tensor, Len: len(x), Hash: HashF32(x)}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// RecordScalars hashes a group of float64 scalars into the stream;
// nil-safe.
func (s *HashStream) RecordScalars(iter int, tensor string, vs ...float64) {
	if s == nil {
		return
	}
	rec := HashRecord{Iter: iter, Tensor: tensor, Len: len(vs), Hash: HashF64(vs)}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// Records returns a copy of the stream in recording order; nil-safe.
func (s *HashStream) Records() []HashRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HashRecord, len(s.recs))
	copy(out, s.recs)
	return out
}

// Len returns the number of records; nil-safe.
func (s *HashStream) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Divergence describes the first mismatch between two replay hash
// streams.
type Divergence struct {
	// Index is the position in the record streams.
	Index int
	// A and B are the records at Index (either may be zero-valued when
	// one stream is a prefix of the other).
	A, B HashRecord
}

// String renders the divergence with both wire-format records.
func (d Divergence) String() string {
	return fmt.Sprintf("record %d: run A {%s} != run B {%s}", d.Index, d.A, d.B)
}

// FirstDivergence compares two replay streams record by record and
// returns the first position where they disagree (different iteration,
// tensor, length or hash), or ok=false when the streams are identical.
func FirstDivergence(a, b []HashRecord) (d Divergence, ok bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return Divergence{Index: i, A: a[i], B: b[i]}, true
		}
	}
	if len(a) != len(b) {
		d = Divergence{Index: n}
		if n < len(a) {
			d.A = a[n]
		}
		if n < len(b) {
			d.B = b[n]
		}
		return d, true
	}
	return Divergence{}, false
}

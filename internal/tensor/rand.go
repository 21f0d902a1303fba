package tensor

import (
	"math"
	"math/rand"
)

// RandMatrix returns an r×c matrix with i.i.d. uniform entries in
// [-scale, scale) drawn from rng. It is used for test data and for simple
// weight initialization.
func RandMatrix(rng *rand.Rand, r, c int, scale float32) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

// RandVector returns a vector of length n with i.i.d. uniform entries in
// [-scale, scale).
func RandVector(rng *rand.Rand, n int, scale float32) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * scale
	}
	return v
}

// GlorotInit fills m with the normalized uniform initialization of Glorot &
// Bengio (2010), which the paper cites as one of the enablers of training
// deep networks from random starts: U(-r, r) with r = sqrt(6/(fanIn+fanOut)).
func GlorotInit(rng *rand.Rand, m *Matrix, fanIn, fanOut int) {
	r := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * r
	}
}

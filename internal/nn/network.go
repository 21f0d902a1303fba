// Package nn implements the feedforward deep neural network acoustic
// model trained by the paper: sigmoid hidden layers, a softmax output over
// HMM states, cross-entropy loss, exact backpropagated gradients, and the
// Gauss-Newton matrix-vector products (Pearlmutter 1994, Schraudolph 2004)
// that Hessian-free optimization consumes.
//
// Parameters live in one flat float32 vector; per-layer weight matrices
// and bias vectors are views into it, so optimizer vector arithmetic
// (axpy, dot) and layer-structured linear algebra share storage.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Topology describes layer sizes from input to output, e.g.
// [360, 1024, 1024, 1024, 384] for a 3-hidden-layer acoustic model.
type Topology struct {
	Sizes []int
}

// NewTopology validates and returns a topology.
func NewTopology(sizes ...int) Topology {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: topology needs ≥2 layers, got %v", sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size in %v", sizes))
		}
	}
	return Topology{Sizes: append([]int(nil), sizes...)}
}

// NumLayers returns the number of weight layers (transitions between
// consecutive activation layers).
func (t Topology) NumLayers() int { return len(t.Sizes) - 1 }

// InputDim returns the input dimension.
func (t Topology) InputDim() int { return t.Sizes[0] }

// OutputDim returns the output dimension (number of HMM states).
func (t Topology) OutputDim() int { return t.Sizes[len(t.Sizes)-1] }

// NumParams returns the total parameter count: Σ (out·in + out).
func (t Topology) NumParams() int {
	n := 0
	for l := 0; l < t.NumLayers(); l++ {
		n += t.Sizes[l+1]*t.Sizes[l] + t.Sizes[l+1]
	}
	return n
}

// Views carves a flat parameter-shaped vector into per-layer weight
// matrices (out×in) and bias vectors sharing storage with flat.
func (t Topology) Views(flat tensor.Vector) (weights []*tensor.Matrix, biases []tensor.Vector) {
	if len(flat) != t.NumParams() {
		panic(fmt.Sprintf("nn: flat vector %d elements, want %d", len(flat), t.NumParams()))
	}
	off := 0
	for l := 0; l < t.NumLayers(); l++ {
		in, out := t.Sizes[l], t.Sizes[l+1]
		weights = append(weights, tensor.FromSlice(out, in, flat[off:off+out*in]))
		off += out * in
		biases = append(biases, tensor.Vector(flat[off:off+out]))
		off += out
	}
	return weights, biases
}

// Network is a feedforward DNN with sigmoid hidden layers and a linear
// output layer (the logits). Weights and Biases alias Params.
type Network struct {
	Topo    Topology
	Params  tensor.Vector
	Weights []*tensor.Matrix
	Biases  []tensor.Vector
}

// New creates a zero-initialized network with the given topology.
func New(topo Topology) *Network {
	flat := tensor.NewVector(topo.NumParams())
	w, b := topo.Views(flat)
	return &Network{Topo: topo, Params: flat, Weights: w, Biases: b}
}

// InitGlorot initializes all weight matrices with Glorot-uniform values
// and zeros the biases, deterministically in rng.
func (n *Network) InitGlorot(rng *rand.Rand) {
	for l, w := range n.Weights {
		tensor.GlorotInit(rng, w, n.Topo.Sizes[l], n.Topo.Sizes[l+1])
		n.Biases[l].Zero()
	}
}

// SetParams copies v into the network's parameter vector.
func (n *Network) SetParams(v tensor.Vector) {
	if len(v) != len(n.Params) {
		panic(fmt.Sprintf("nn: SetParams %d elements, want %d", len(v), len(n.Params)))
	}
	copy(n.Params, v)
}

// Clone returns an independent deep copy of the network.
func (n *Network) Clone() *Network {
	out := New(n.Topo)
	copy(out.Params, n.Params)
	return out
}

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.Params) }

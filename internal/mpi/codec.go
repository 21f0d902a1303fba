package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float32 slices are the dominant payload (weights, gradients, CG
// directions), encoded little-endian, 4 bytes per element.

func encodeF32(x []float32) []byte {
	buf := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func decodeF32Into(buf []byte, x []float32) error {
	if len(buf) != 4*len(x) {
		return fmt.Errorf("mpi: payload %d bytes, want %d", len(buf), 4*len(x))
	}
	for i := range x {
		x[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Little-endian wire helpers for raw payloads — vectors and the float64
// pair — used by the star's frames and replies (star.go, ops.go).

func encodeVec(x tensor.Vector) []byte {
	buf := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

func decodeInto(buf []byte, x tensor.Vector) error {
	if len(buf) != 4*len(x) {
		return fmt.Errorf("core: payload %d bytes, want %d", len(buf), 4*len(x))
	}
	for i := range x {
		x[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

func encodeF64Pair(a, b float64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b))
	return buf
}

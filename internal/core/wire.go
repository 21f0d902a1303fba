package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Little-endian wire helpers for raw payloads — vectors and small
// float64 tuples — shared by the star's frames and replies (star.go,
// ops.go) and the async parameter server (async.go).

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

func decodeF64Pair(buf []byte, out *[2]float64) error {
	if len(buf) != 16 {
		return fmt.Errorf("core: pair payload %d bytes", len(buf))
	}
	out[0] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	out[1] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	return nil
}

func encodeF64Triple(a, b, c float64) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(c))
	return buf
}

func decodeF64Triple(buf []byte, out *[3]float64) error {
	if len(buf) != 24 {
		return fmt.Errorf("core: triple payload %d bytes", len(buf))
	}
	out[0] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	out[1] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	out[2] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16:]))
	return nil
}

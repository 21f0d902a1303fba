package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestEmOpBodyRoundTrip mirrors the worker's emOp parse
// (op byte, arg float bits, payload tail) against emOpBody's framing.
func TestEmOpBodyRoundTrip(t *testing.T) {
	payload := []byte("shard payload")
	body := emOpBody(opGradient, 0.75, payload)
	if len(body) != 5+len(payload) {
		t.Fatalf("body = %d bytes, want %d", len(body), 5+len(payload))
	}
	if op := float32(body[0]); op != opGradient {
		t.Errorf("op = %v, want %v", op, opGradient)
	}
	if arg := math.Float32frombits(binary.LittleEndian.Uint32(body[1:5])); arg != 0.75 {
		t.Errorf("arg = %v, want 0.75", arg)
	}
	if !bytes.Equal(body[5:], payload) {
		t.Errorf("payload tail = %q, want %q", body[5:], payload)
	}
}

// FuzzEmDecode feeds arbitrary bytes to the elastic message decoder:
// it must never panic, must reject only frames shorter than the
// [type][round u32] header, and anything it accepts must re-encode
// byte-identically (including through an emOpBody-framed body).
func FuzzEmDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(emOp), 0, 0, 0}) // one byte short of a header
	f.Add(emEncode(emOp, 0, nil))      // header-only op
	f.Add(emEncode(emOp, 3, emOpBody(opGradient, 0.5, []byte("grad"))))
	f.Add(emEncode(emOp, 9, emOpBody(opSample, 0, nil)))
	f.Add(emEncode(emShard, 2, []byte("not gob")))
	f.Add(emEncode(emPing, 1<<24-1, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(emEncode(emStop, 7, nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // unknown type, garbage round
	const dim = 3
	for _, frame := range hostileFrames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, round, body, err := emDecode(data)
		if err != nil {
			if len(data) >= 5 {
				t.Fatalf("emDecode rejected a %d-byte frame: %v", len(data), err)
			}
			return
		}
		if round < 0 {
			t.Fatalf("emDecode round = %d, want non-negative", round)
		}
		if redone := emEncode(typ, round, body); !bytes.Equal(redone, data) {
			t.Fatalf("accepted frame does not round-trip: got %x, want %x", redone, data)
		}
		// The worker's emOp body parse must never panic, and what it
		// accepts names a row of the table with a payload of exactly the
		// length that row's decodeInto needs.
		if typ == emOp {
			row, _, err := decodeOp(body, make([]float32, dim))
			if err != nil {
				return
			}
			if want := map[bool]int{true: 4 * dim}[row.down]; row.serve == nil || len(body)-5 != want {
				t.Fatalf("decodeOp accepted %x as %+v with a %d-byte payload, want %d", body, row, len(body)-5, want)
			}
		}
	})
}

// Package opproto seeds every opproto hazard: a dispatch arm with no
// master sender, an opcode sent but dispatched nowhere, an arm that
// never sends the awaited reply, and an opcode missing from the name
// table.
package opproto

import (
	"time"

	"repro/internal/mpi"
)

const (
	opGood   float32 = 1 + iota // sent, handled, named, replied to
	opDead                      // arm exists, master never sends it
	opLost                      // master sends it, no arm handles it
	opMute                      // master waits for a reply the arm never sends
	opNoName                    // handled and sent, but absent from opLabel
)

const (
	tagCmd   = 7000
	tagReply = 7001
)

func encodePair(a, b float64) []byte {
	buf := make([]byte, 16)
	_, _ = a, b
	return buf
}

// master issues each opcode and gathers fixed-size replies.
func master(c *mpi.Comm) {
	gather(c, opGood, 16)
	gather(c, opLost, 16) // sent with p2p traffic, dispatched nowhere
	gather(c, opMute, 16)
	gather(c, opNoName, 16)
}

// gather broadcasts op and collects one wantLen-byte reply per worker.
func gather(c *mpi.Comm, op float32, wantLen int) [][]byte {
	var replies [][]byte
	for w := 1; w < c.Size(); w++ {
		if err := c.SendBytes(w, tagCmd, []byte{byte(op)}); err != nil {
			continue
		}
		msg, err := c.RecvBytesTimeout(w, tagReply, time.Second)
		if err != nil || len(msg.Data) != wantLen {
			continue
		}
		replies = append(replies, msg.Data)
	}
	return replies
}

// worker dispatches on the opcode byte.
func worker(c *mpi.Comm) error {
	reply := func(data []byte) error { return c.SendBytes(0, tagReply, data) }
	for {
		msg, err := c.RecvBytes(0, tagCmd)
		if err != nil {
			return err
		}
		switch float32(msg.Data[0]) {
		case opGood:
			if err := reply(encodePair(1, 2)); err != nil {
				return err
			}
		case opDead: // no master path issues opDead
			if err := reply(encodePair(0, 0)); err != nil {
				return err
			}
		case opMute: // master waits; no reply ever leaves
			continue
		case opNoName:
			if err := reply(encodePair(3, 4)); err != nil {
				return err
			}
		}
	}
}

// opLabel names opcodes for logs — opNoName is missing.
func opLabel(op float32) string {
	switch op {
	case opGood:
		return "good"
	case opDead:
		return "dead"
	case opMute:
		return "mute"
	}
	return "?"
}

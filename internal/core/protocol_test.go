package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// rig starts real workers on ranks 1.. of a fresh fabric; it returns
// rank 0's comm and the channel their exit errors land on.
func rig(t *testing.T, fabric FabricKind, ranks int) (*mpi.Comm, chan error) {
	ts := testTransports(t, fabric, ranks)
	exits := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(c *mpi.Comm) {
			defer c.Close()
			exits <- runWorker(c, nil, nil)
		}(mpi.NewComm(ts[r]))
	}
	comm := mpi.NewComm(ts[0])
	t.Cleanup(func() { comm.Close() })
	return comm, exits
}

// flat is an op's fold as one list: the vector, then the scalars.
func flat(vec tensor.Vector, sc []float64) []float64 {
	out := make([]float64, 0, len(vec)+len(sc))
	for _, v := range vec {
		out = append(out, float64(v))
	}
	return append(out, sc...)
}

// relDiff is max|a-b| / max|b|.
func relDiff(a, b []float64) float64 {
	var diff, scale float64
	for i, y := range b {
		diff, scale = math.Max(diff, math.Abs(a[i]-y)), math.Max(scale, math.Abs(y))
	}
	return diff / math.Max(scale, math.SmallestNonzeroFloat64)
}

// TestOpsTable runs every row end to end on both fabrics: the fold is
// bit-equal across fabrics and matches the row served once by an engine
// over the union shard. It also pins the table's own invariants.
func TestOpsTable(t *testing.T) {
	numOps := len(ops) - 1
	names := map[string]int{}
	var order []int // every row once, stop last
	for op := 1; op <= numOps; op++ {
		row, ok := lookupOp(byte(op))
		if !ok || row != &ops[op] || row.serve == nil || row.phase == "" || op != int(byte(op)) {
			t.Fatalf("opcode %d: lookup ok=%v row=%+v, want a complete row whose opcode fits the frame's byte", op, ok, row)
		}
		_, numeric := strconv.ParseFloat(strings.TrimPrefix(row.name, "op"), 64)
		if prev, dup := names[row.name]; dup || numeric == nil || row.name == "" {
			t.Errorf("opcode %d: name %q is empty, numeric or shared with opcode %d", op, row.name, prev)
		}
		names[row.name] = op
		if op != opStop {
			order = append(order, op)
		}
	}
	order = append(order, opStop)

	p := testProblem(t, CrossEntropy).filled()
	net := nn.New(p.Topo)
	p.initParams(net)
	union := &worker{eng: newEngine(p, p.Train.Utts, p.Heldout.Utts), in: net.Params}
	union.eng.setParams(net.Params)
	union.eng.drawSample(2)

	run := func(fabric FabricKind) map[int][]float64 {
		comm, exits := rig(t, fabric, 3)
		m := &master{comm: comm, star: &star{comm: comm}, p: p, part: corpus.SortedGreedy{}}
		if err := m.loadData(); err != nil {
			t.Fatal(err)
		}
		got := map[int][]float64{}
		for _, op := range order {
			row, sc := &ops[op], make([]float64, ops[op].scalars)
			var vec tensor.Vector
			if row.up {
				vec = tensor.NewVector(m.dim)
				vec[0] = 42 // the star must zero before folding
			}
			if err := m.issue(op, 2, m.theta, vec, sc); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			got[op] = flat(vec, sc)
		}
		for range m.star.live {
			if err := <-exits; err != nil {
				t.Errorf("worker exit: %v", err)
			}
		}
		return got
	}

	inproc, tcp := run(FabricInproc), run(FabricTCP)
	for op := 1; op <= numOps; op++ {
		name := ops[op].name
		if !reflect.DeepEqual(inproc[op], tcp[op]) {
			t.Errorf("%s: inproc and tcp folds differ", name)
		}
		if len(inproc[op]) > 0 { // the row has a reply
			vec, sc, _ := union.serve(&ops[op], 2, net.Params)
			if d := relDiff(inproc[op], flat(vec, sc)); d > 1e-4 {
				t.Errorf("%s: fold differs from the union shard's answer by %g", name, d)
			}
		}
	}

	// Hostile input, the frames no master sends: the receive loop must
	// exit with an error naming its rank and the opcode, never panic.
	for name, frame := range hostileFrames {
		t.Run("star "+name, func(t *testing.T) {
			master, exits := rig(t, FabricInproc, 2)
			if _, err := shipShards(master, p, corpus.SortedGreedy{}); err != nil {
				t.Fatal(err)
			}
			if err := master.SendBytes(1, mpi.TagStarCmd, frame); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-exits:
				if err == nil || !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "opcode") {
					t.Fatalf("worker exit = %v, want an error naming worker 1 and the opcode", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("worker still serving after a hostile command")
			}
		})
	}
	// And on the master: a wrong-length accuracy reply names rank, op, got
	// and want bytes. With an eviction budget of 0 it is the run's error;
	// above 0 it is one event and — training being over — evicts nobody.
	fabric := newTestFabric(2)
	defer fabric.Close()
	go func() {
		c := newTestComm(fabric, 1)
		for range 2 {
			if _, err := c.RecvBytes(0, mpi.TagStarCmd); err == nil {
				_ = c.SendBytes(0, mpi.TagStarReply, []byte{1, 2, 3}) // best-effort: the master side asserts
			}
		}
	}()
	const want = "accuracy failed on rank 1: malformed accuracy reply: 3 bytes, want 16"
	s := &star{comm: newTestComm(fabric, 0), deadline: 5 * time.Second, live: []int{1}}
	m := &master{comm: s.comm, star: s, ob: &obs.Observer{Events: obs.NewEventLog(0)}}
	if _, err := m.accuracy(); err == nil || !strings.Contains(err.Error(), want) || len(m.ob.EventLog().Entries()) != 0 {
		t.Errorf("accuracy with budget 0: err %v, events %+v: want the error naming the reply and no event", err, m.ob.EventLog().Entries())
	}
	m.pol = FaultPolicy{}.filled()
	acc, err := m.accuracy()
	log := m.ob.EventLog().Entries()
	if err != nil || acc != 0 || len(log) != 1 || len(s.live) != 1 || len(m.report.Evictions) != 0 || !strings.Contains(log[0].Text, want) {
		t.Errorf("accuracy = %v, %v; events %+v; live %v: want 0, nil, one event naming the reply, nobody evicted", acc, err, log, s.live)
	}
}

// TestStarFrameWalk sends every frame type of emNames, well formed, on
// the star command tag to a real worker: each must reach an arm of
// starLoop (the worker serves it and is still there for the stop that
// follows), and a type outside the table must end the worker with an
// error naming its rank and the type. A type added to the table without
// an arm, or an arm deleted, fails here by the type's name.
func TestStarFrameWalk(t *testing.T) {
	p := testProblem(t, CrossEntropy).filled()
	sup, err := encodeGob(&shardSupplement{})
	if err != nil {
		t.Fatal(err)
	}
	const seq = 7
	wellFormed := map[byte][]byte{
		emOp:    emOpBody(opSample, 1, nil),
		emShard: sup,
		emPing:  binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, mpi.TagHeartbeat), seq),
		emStop:  nil,
	}
	// serve starts a worker, sends it one frame and then a stop, and
	// returns what the worker exited with.
	serve := func(t *testing.T, typ byte, body []byte) error {
		master, exits := rig(t, FabricInproc, 2)
		if _, err := shipShards(master, p, corpus.SortedGreedy{}); err != nil {
			t.Fatal(err)
		}
		if err := master.SendBytes(1, mpi.TagStarCmd, emEncode(typ, 0, body)); err != nil {
			t.Fatal(err)
		}
		// Best-effort: a worker the frame already ended cannot take it.
		_ = master.SendBytes(1, mpi.TagStarCmd, emEncode(emStop, 0, nil))
		if typ == emPing {
			pong, err := master.RecvBytesTimeout(1, mpi.TagHeartbeat, 10*time.Second)
			if err != nil || len(pong.Data) != 4 || binary.LittleEndian.Uint32(pong.Data) != seq {
				t.Errorf("pong = %v, %v; want seq %d", pong.Data, err, seq)
			}
		}
		select {
		case err := <-exits:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("worker still serving after the stop")
			return nil
		}
	}
	for typ, name := range emNames {
		if name == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			body, ok := wellFormed[byte(typ)]
			if !ok {
				t.Fatalf("no well-formed %s frame in this test: add one", name)
			}
			if err := serve(t, byte(typ), body); err != nil {
				t.Errorf("worker exit after a %s frame = %v, want the frame served and a clean stop", name, err)
			}
		})
	}
	for _, typ := range []byte{0, byte(len(emNames)), 255} {
		t.Run(emName(typ), func(t *testing.T) {
			err := serve(t, typ, nil)
			if want := fmt.Sprintf("worker 1: unknown elastic message type(%d)", typ); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("worker exit = %v, want %q", err, want)
			}
		})
	}
}

// hostileFrames are the star frames no master sends: opcodes outside
// the table and payloads of the wrong length for their row at any dim.
var hostileFrames = map[string][]byte{
	"opcode 0":        emEncode(emOp, 0, emOpBody(0, 0, nil)),
	"opcode past end": emEncode(emOp, 0, emOpBody(len(ops), 0, nil)),
	"opcode 255":      emEncode(emOp, 0, emOpBody(255, 0, nil)),
	"short payload":   emEncode(emOp, 0, emOpBody(opSetParams, 0, make([]byte, 3))),
	"stray payload":   emEncode(emOp, 0, emOpBody(opGradient, 0, make([]byte, 4))),
}

package mpi

// The module's tag plan, stated once. Every tag any package of this
// module sends or receives on is a constant below and a key of tagPlan;
// internal/core, internal/serve and internal/obs/telemetry use these
// constants and declare none of their own. Go rejects a duplicate
// constant key in a map literal, so two protocols on one tag do not
// compile; TestTagPlan pins the values (they are the wire) and proves
// the [tag, tag+width) ranges disjoint.

// Point tags: one FIFO stream each, in the user tag space below the
// blocks.
const (
	// TagShard carries the master→worker data shard (load_data).
	TagShard = 9000

	// The async-SGD parameter server's conversation (core/async.go).
	TagAsyncGrad  = 9100 // worker → master: scaled minibatch gradient
	TagAsyncPull  = 9101 // worker → master: parameter request
	TagAsyncParam = 9102 // master → worker: current parameters
	TagAsyncDone  = 9103 // worker → master: finished (loss, frames)
	TagAsyncFinal = 9104 // master → worker: final parameters for evaluation
	TagAsyncEval  = 9105 // worker → master: held-out loss, frames, correct

	// TagStarCmd carries every master→worker star frame (core/star.go),
	// in FIFO order on one tag so a worker can never block on an
	// out-of-order match.
	TagStarCmd = 9500

	// TagClockSync carries the master↔worker RTT ping/pong rounds that
	// estimate each worker's clock offset at session start.
	TagClockSync = 9600
	// TagTelemetry carries worker→master span/metric bundle shipments
	// at iteration boundaries, off the critical path.
	TagTelemetry = 9601

	// TagServeReq carries master→replica batch requests and TagServeRes
	// the scored batches back (serve/replica.go). A scoring worker is
	// pinned to one replica and a replica serves one batch at a time,
	// so one FIFO tag per direction suffices.
	TagServeReq = 9700
	TagServeRes = 9701
)

// Tag blocks: a base to which the sender adds an offset below
// tagBlockWidth, so each base owns [base, base+tagBlockWidth). They
// start at 1<<24; block 0 is the point tags' and user code's.
const (
	tagBlockWidth = 1 << 24

	tagBcast   = 1 << 24
	tagReduce  = 2 << 24
	tagBarrier = 5 << 24 // + the dissemination round's distance

	// TagStarReply is the base of worker→master op replies; the star's
	// round number is added, so a reply from before an eviction can
	// never be taken for a current one.
	TagStarReply = 16 << 24
	// TagHeartbeat is the base of heartbeat pongs, likewise offset by
	// the round.
	TagHeartbeat = 17 << 24
)

// tagRow describes one reserved tag: who speaks on it, and how many
// consecutive tags from it are taken (1 for a point tag).
type tagRow struct {
	name  string
	width int
}

var tagPlan = map[int]tagRow{
	TagShard:      {"core.shard", 1},
	TagAsyncGrad:  {"core.async.grad", 1},
	TagAsyncPull:  {"core.async.pull", 1},
	TagAsyncParam: {"core.async.param", 1},
	TagAsyncDone:  {"core.async.done", 1},
	TagAsyncFinal: {"core.async.final", 1},
	TagAsyncEval:  {"core.async.eval", 1},
	TagStarCmd:    {"core.star.cmd", 1},
	TagClockSync:  {"telemetry.clock_sync", 1},
	TagTelemetry:  {"telemetry.bundle", 1},
	TagServeReq:   {"serve.req", 1},
	TagServeRes:   {"serve.res", 1},
	tagBcast:      {"mpi.bcast", tagBlockWidth},
	tagReduce:     {"mpi.reduce", tagBlockWidth},
	tagBarrier:    {"mpi.barrier", tagBlockWidth},
	TagStarReply:  {"core.star.reply", tagBlockWidth},
	TagHeartbeat:  {"core.star.heartbeat", tagBlockWidth},
}

package lint

// SendRecvPair does per-path pairing of the point-to-point surface.
// Two hazards:
//
//   - a blocking receive (Recv/RecvBytes/RecvF32 — no deadline) on a
//     statically-known tag that no code path in the package ever sends:
//     the counterpart role's send is missing and the receiver hangs
//     forever;
//   - the recv-before-send deadlock between two straight-line role
//     functions: f blocks receiving tag T1 and only later sends T2,
//     while g blocks receiving T2 and only later sends T1 — each side
//     waits for a message the other sends only after its own receive.
//
// Deadline-bounded receives (RecvBytesTimeout, RecvTimeout) are
// exempt: they are the eviction path, not a hang. Ordering claims are
// made only for functions whose p2p trace is linear — unconditional
// and free of opaque comm-escaping calls. The mpi package itself is
// exempt.

import (
	"go/types"
)

type SendRecvPair struct{}

func (SendRecvPair) Name() string { return "sendrecvpair" }

func (SendRecvPair) Doc() string {
	return "p2p pairing: blocking receives on tags no package path sends, and recv-before-send deadlocks between straight-line role functions"
}

func (c SendRecvPair) Run(p *Package) []Finding {
	if p.ImportPath == mpiPkgPath {
		return nil
	}
	z := newP2PPass(p)

	type fnTrace struct {
		name string
		sum  *p2pSummary
	}
	var fns []fnTrace
	for _, fd := range z.orderedDecls() {
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fns = append(fns, fnTrace{name: fd.Name.Name, sum: z.summarize(fn)})
	}

	// Every tag value some path in this package sends.
	sendVals := map[int]bool{}
	for _, f := range fns {
		for _, ev := range f.sum.events {
			if !ev.opaque && ev.dir == dirSend && ev.tag.known && !ev.tag.anyTag {
				sendVals[ev.tag.val] = true
			}
		}
	}

	var out []Finding

	// Blocking receives with no matching send anywhere in the package.
	for _, f := range fns {
		for _, ev := range f.sum.events {
			if ev.opaque || ev.dir != dirRecv || !ev.blocking || !ev.tag.known || ev.tag.anyTag || !ev.report {
				continue
			}
			if !sendVals[ev.tag.val] {
				out = append(out, p.finding(c, SevError, ev.node,
					"blocking receive on tag %s but no code path in this package sends it: the counterpart role's send is missing",
					ev.tag.render()))
			}
		}
	}

	// Recv-before-send deadlock between two linear role functions.
	sendAfter := func(sum *p2pSummary, idx, val int) bool {
		for _, ev := range sum.events[idx+1:] {
			if !ev.opaque && ev.dir == dirSend && ev.tag.known && !ev.tag.anyTag && ev.tag.val == val {
				return true
			}
		}
		return false
	}
	for i, f := range fns {
		if !f.sum.linear() {
			continue
		}
	pair:
		for j, g := range fns {
			if i == j || !g.sum.linear() {
				continue
			}
			for a, evA := range f.sum.events {
				if evA.dir != dirRecv || !evA.blocking || !evA.tag.known || evA.tag.anyTag {
					continue
				}
				for x, evX := range g.sum.events {
					if evX.dir != dirRecv || !evX.blocking || !evX.tag.known || evX.tag.anyTag {
						continue
					}
					if sendAfter(f.sum, a, evX.tag.val) && sendAfter(g.sum, x, evA.tag.val) {
						out = append(out, p.finding(c, SevError, evA.node,
							"recv-before-send deadlock: %s blocks receiving tag %s while %s blocks receiving tag %s (at %s), and each side sends only after its receive",
							f.name, evA.tag.render(), g.name, evX.tag.render(), evX.site))
						continue pair
					}
				}
			}
		}
	}

	return out
}

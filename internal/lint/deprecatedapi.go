package lint

import (
	"go/ast"
)

// DeprecatedAPI polices the retired distributed-training entry-point
// names. The old surface was a five-way cross-product —
// TrainDistributedHF{,Obs,Checked,TCP,TCPChecked} for spawn-mode runs and
// Run{Master,Worker}{,Obs} for caller-owned ranks — that forced every new
// orthogonal capability (observability, protocol checking, transport
// choice, fault tolerance) to multiply the API. core.NewSession with
// options replaced all of them, and the shims have since been deleted, so
// the analyzer matches purely by identifier name: any occurrence — a
// call, a reference, or a re-declaration that would resurrect a name, in
// any package including internal/core itself — is an error.
type DeprecatedAPI struct{}

// Name implements Analyzer.
func (DeprecatedAPI) Name() string { return "deprecatedapi" }

// Doc implements Analyzer.
func (DeprecatedAPI) Doc() string {
	return "occurrence of a retired core training entry-point name " +
		"(TrainDistributedHF*, Run{Master,Worker}*); the shims are deleted and the " +
		"names reserved — build a core.NewSession with options (WithRanks/WithFabric/" +
		"WithComm/WithObserver/WithFaults) and call Run instead"
}

// deprecatedCoreFuncs maps each retired entry-point name to the option
// spelling that replaces it, quoted in the finding message.
var deprecatedCoreFuncs = map[string]string{
	"TrainDistributedHF":           "core.NewSession(p, core.WithRanks(n))",
	"TrainDistributedHFObs":        "core.NewSession with core.WithObserver",
	"TrainDistributedHFChecked":    "core.NewSession(p, core.WithRanks(n)); the protocol checker is deleted",
	"TrainDistributedHFTCP":        "core.NewSession with core.WithFabric(core.FabricTCP)",
	"TrainDistributedHFTCPChecked": "core.NewSession with core.WithFabric(core.FabricTCP); the protocol checker is deleted",
	"RunMaster":                    "core.NewSession with core.WithComm",
	"RunMasterObs":                 "core.NewSession with core.WithComm and core.WithObserver",
	"RunWorker":                    "core.NewSession with core.WithComm",
	"RunWorkerObs":                 "core.NewSession with core.WithComm and core.WithObserver",
}

// Run implements Analyzer.
func (d DeprecatedAPI) Run(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			repl, retired := deprecatedCoreFuncs[id.Name]
			if !retired {
				return true
			}
			// Purely name-based: a declaration resurrects the name, a use
			// calls or references whatever carries it. Either way the name
			// itself is the violation.
			if obj := p.Info.Defs[id]; obj != nil {
				out = append(out, p.finding(d, SevError, id,
					"%s re-declares a retired core entry-point name; use %s", id.Name, repl))
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil {
				out = append(out, p.finding(d, SevError, id,
					"%s is a retired core entry point; use %s", id.Name, repl))
			}
			return true
		})
	}
	return out
}

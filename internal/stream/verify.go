package stream

import (
	"mobigate/internal/mcl"
	"mobigate/internal/semantics"
)

// Runtime semantic verification — the §8.2.2 recommendation of capturing
// mis-configuration and semantic assertions during runtime, not only at
// compile time. Verify snapshots the live topology (which reconfigurations
// may have evolved arbitrarily far from the compiled script) and re-runs
// the chapter-5 analyses against it.

// Verify analyzes the live topology under the given rules. Output ports
// bound to an outlet or a channel count as connected; declared output ports
// with no binding are open circuits unless allowed by the rules.
func (st *Stream) Verify(rules semantics.Rules) *semantics.Report {
	g, open := st.snapshot()
	return semantics.AnalyzeLive(st.name, g, open, rules)
}

// snapshot builds the live StreamGraph and the list of unbound declared
// output ports.
func (st *Stream) snapshot() (*semantics.Graph, []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := semantics.NewGraph()
	var open []string
	for id, n := range st.nodes {
		def := id
		if d := st.decls[id]; d != nil {
			def = d.Name
		}
		g.AddNode(id, def)
		if d := st.decls[id]; d != nil {
			outs := n.outs()
			for _, p := range d.Ports {
				if p.Dir == mcl.PortOut && outs[p.Name] == nil {
					open = append(open, id+"."+p.Name)
				}
			}
		}
	}
	for _, c := range st.conns {
		g.AddEdge(c.from.Inst, c.to.Inst)
	}
	return g, open
}

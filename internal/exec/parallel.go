package exec

import (
	"streamit/internal/ir"
	"streamit/internal/sched"
)

// NewParallelOpts builds the goroutine-per-filter engine: the mapped
// engine under the identity plan, every node its own worker and every edge
// a cross-worker link. It is the natural Go rendering of StreamIt's
// execution model — each filter an autonomous actor, batch sizes static
// from the steady-state rates — and the baseline the coarser plans are
// measured against. Being a lockstep plan it rejects teleport messaging and
// feedback loops.
func NewParallelOpts(g *ir.Graph, s *sched.Schedule, opts Options) (*MappedEngine, error) {
	assign := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		assign[n.ID] = n.ID
	}
	return NewMappedOpts(g, s, assign, len(g.Nodes), opts)
}

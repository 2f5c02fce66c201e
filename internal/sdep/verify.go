package sdep

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/sched"
)

// MaxLoop computes the information wavefront around a feedback loop using
// the simulation-based transfer functions: maxloop(x) = ma{I2->O}(ma{O->I2}(x)),
// where O is the feedback joiner's output tape and I2 the loop (back) edge.
// For a well-formed loop maxloop(x) = x + delay: the loop neither deadlocks
// (maxloop < x+delay) nor overflows (maxloop > x+delay).
func MaxLoop(c *Calc, g *ir.Graph, back *ir.Edge, x int64) (int64, error) {
	if !back.Back {
		return 0, fmt.Errorf("edge %s is not a feedback back edge", back)
	}
	joiner := back.Dst
	if joiner.Kind != ir.NodeJoiner || len(joiner.Out) == 0 || joiner.Out[0] == nil {
		return 0, fmt.Errorf("back edge %s does not terminate at a connected joiner", back)
	}
	out := joiner.Out[0]
	onBack, err := c.Ma(out, back, x)
	if err != nil {
		return 0, err
	}
	// The initial delay items are already counted in Pushed for the back
	// edge; the wavefront through the joiner sees them plus what arrived.
	return c.Ma(back, out, onBack)
}

// CheckFeedback validates every feedback loop of g against the maxloop
// criterion at several sample points.
func CheckFeedback(g *ir.Graph, s *sched.Schedule) error {
	c := NewCalc(g, s)
	for _, e := range g.Edges {
		if !e.Back {
			continue
		}
		out := e.Dst.Out[0]
		base := int64(len(e.Initial)) + int64(s.InitReps[out.Src.ID]*out.Src.PushPort(out.SrcPort))
		for _, x := range []int64{base + 1, base + int64(s.ItemsPerSteady(out)), base + 2*int64(s.ItemsPerSteady(out))} {
			got, err := MaxLoop(c, g, e, x)
			if err != nil {
				return err
			}
			if got < x {
				return fmt.Errorf("feedback loop at %s deadlocks: wavefront around the loop loses %d items", e, x-got)
			}
		}
	}
	return nil
}

// InfoLatency measures latency in information wavefronts (the paper's
// "new method for measuring latency in a stream graph"): given tapes a
// (upstream) and b, it returns how many items must appear on a before the
// x-th item can appear on b, minus the items b already accounts for — the
// pipeline's end-to-end information delay at position x.
func InfoLatency(c *Calc, a, b *ir.Edge, x int64) (int64, error) {
	need, err := c.Mi(a, b, x)
	if err != nil {
		return 0, err
	}
	return need - x, nil
}

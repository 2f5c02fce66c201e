package linear

import (
	"fmt"
	"math"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// Options control the linear optimizer.
type Options struct {
	// Combine collapses adjacent linear filters (pipelines and split-joins)
	// into single matrix filters when the estimated cost decreases.
	Combine bool
	// Verify cross-checks every generated replacement kernel against its
	// linear representation on a pseudo-random stream before accepting it;
	// failures abort the optimization with an error.
	Verify bool
}

// Report summarizes what the optimizer did.
type Report struct {
	LinearFilters  int // linear filters detected
	TotalFilters   int
	Combined       int // filters removed by combination
	MatrixReplaced int // regions replaced by direct matrix kernels
}

// Optimize rewrites a hierarchical stream, replacing linear regions with
// collapsed matrix filters. The input stream is not modified; shared
// filters are reused where untouched.
func Optimize(s ir.Stream, opt Options, rep *Report) (ir.Stream, error) {
	if rep == nil {
		rep = &Report{}
	}
	o := &optimizer{opt: opt, rep: rep}
	return o.rewrite(s)
}

// Analyze reports which filters in a stream are linear, without rewriting.
func Analyze(s ir.Stream) map[string]*Rep {
	out := map[string]*Rep{}
	var walk func(ir.Stream)
	walk = func(s ir.Stream) {
		switch s := s.(type) {
		case *ir.Filter:
			if s.WorkFn != nil {
				return
			}
			if r, err := Extract(s.Kernel); err == nil {
				out[s.Kernel.Name] = r
			}
		case *ir.Pipeline:
			for _, c := range s.Children {
				walk(c)
			}
		case *ir.SplitJoin:
			for _, c := range s.Children {
				walk(c)
			}
		case *ir.FeedbackLoop:
			walk(s.Body)
			if s.Loop != nil {
				walk(s.Loop)
			}
		}
	}
	walk(s)
	return out
}

type optimizer struct {
	opt Options
	rep *Report
	err error
}

// linRes is the result of rewriting a stream: the (possibly replaced)
// stream plus its linear representation if the whole stream is linear.
type linRes struct {
	stream ir.Stream
	rep    *Rep
	nsrc   int // source filters folded into rep (for Combined accounting)
}

func (o *optimizer) rewrite(s ir.Stream) (ir.Stream, error) {
	res, err := o.walk(s)
	if err != nil {
		return nil, err
	}
	out := o.finalize(res)
	if o.err != nil {
		return nil, o.err
	}
	return out, nil
}

// walk rewrites bottom-up. It returns the stream's linear rep when the
// entire (rewritten) stream is linear, enabling combination higher up.
func (o *optimizer) walk(s ir.Stream) (linRes, error) {
	switch s := s.(type) {
	case *ir.Filter:
		o.rep.TotalFilters++
		if s.WorkFn != nil {
			return linRes{stream: s}, nil
		}
		r, err := Extract(s.Kernel)
		if err != nil {
			return linRes{stream: s}, nil
		}
		o.rep.LinearFilters++
		return linRes{stream: s, rep: r, nsrc: 1}, nil

	case *ir.Pipeline:
		return o.walkPipeline(s)

	case *ir.SplitJoin:
		return o.walkSplitJoin(s)

	case *ir.FeedbackLoop:
		body, err := o.rewrite(s.Body)
		if err != nil {
			return linRes{}, err
		}
		loop := s.Loop
		if loop != nil {
			if loop, err = o.rewrite(loop); err != nil {
				return linRes{}, err
			}
		}
		fl := &ir.FeedbackLoop{Name: s.Name, Join: s.Join, Body: body,
			Split: s.Split, Loop: loop, Delay: s.Delay, InitPath: s.InitPath}
		return linRes{stream: fl}, nil
	}
	return linRes{}, fmt.Errorf("linear: unknown stream type %T", s)
}

func (o *optimizer) walkPipeline(p *ir.Pipeline) (linRes, error) {
	kids := make([]linRes, len(p.Children))
	for i, c := range p.Children {
		r, err := o.walk(c)
		if err != nil {
			return linRes{}, err
		}
		kids[i] = r
	}
	merged := kids
	if o.opt.Combine {
		// Split each maximal run of linear children into regions.
		merged = nil
		for i := 0; i < len(kids); {
			j := i + 1
			if kids[i].rep == nil {
				merged = append(merged, kids[i])
			} else {
				for j < len(kids) && kids[j].rep != nil {
					j++
				}
				merged = append(merged, cheapestSplit(kids[i:j])...)
			}
			i = j
		}
		if len(merged) == 1 && merged[0].rep != nil {
			// Whole pipeline is one linear region: let the parent keep
			// combining; finalize only at the top.
			return merged[0], nil
		}
	}
	out := &ir.Pipeline{Name: p.Name}
	for _, k := range merged {
		out.Add(o.finalize(k))
	}
	return linRes{stream: out}, nil
}

func (o *optimizer) walkSplitJoin(sj *ir.SplitJoin) (linRes, error) {
	kids := make([]linRes, len(sj.Children))
	allLinear := true
	for i, c := range sj.Children {
		r, err := o.walk(c)
		if err != nil {
			return linRes{}, err
		}
		kids[i] = r
		if r.rep == nil {
			allLinear = false
		}
	}
	if o.opt.Combine && allLinear && sj.Join.Kind == ir.SJRoundRobin {
		reps := make([]*Rep, len(kids))
		total := 0
		for i, k := range kids {
			reps[i] = k.rep
			total += k.nsrc
		}
		join := sj.Join
		if len(join.Weights) == 0 {
			join.Weights = make([]int, len(kids))
			for i := range join.Weights {
				join.Weights[i] = 1
			}
		}
		split := sj.Split
		if split.Kind == ir.SJRoundRobin && len(split.Weights) == 0 {
			split.Weights = make([]int, len(kids))
			for i := range split.Weights {
				split.Weights[i] = 1
			}
		}
		comb, err := CombineSplitJoin(split, reps, join)
		if err == nil && worthCombiningSJ(kids, comb) {
			return linRes{rep: comb, nsrc: total}, nil
		}
	}
	out := &ir.SplitJoin{Name: sj.Name, Split: sj.Split, Join: sj.Join}
	for _, k := range kids {
		out.Add(o.finalize(k))
	}
	return linRes{stream: out}, nil
}

// finalize materializes a linear region as a concrete filter: a combined
// region becomes a direct matrix kernel, and a single untouched filter
// stays as written.
func (o *optimizer) finalize(k linRes) ir.Stream {
	if k.rep == nil || k.stream != nil {
		return k.stream
	}
	o.rep.Combined += k.nsrc - 1
	o.rep.MatrixReplaced++
	kern := ToKernel(fmt.Sprintf("LinearMatrix_%d", o.rep.MatrixReplaced), k.rep)
	o.verify(k.rep, kern)
	return &ir.Filter{Kernel: kern, In: ir.TypeFloat, Out: ir.TypeFloat}
}

// verify cross-checks a replacement kernel when Options.Verify is set.
func (o *optimizer) verify(r *Rep, kern *wfunc.Kernel) {
	if !o.opt.Verify || o.err != nil || r.Pop == 0 {
		return
	}
	if err := VerifyEquivalent(r, kern, 4); err != nil {
		o.err = fmt.Errorf("linear: replacement %s failed verification: %w", kern.Name, err)
	}
}

// cheapestSplit cuts a run of pipelined linear regions into consecutive
// groups, each combined into one region, so that the run costs the least
// per firing of its first region: the paper's optimal selection, by
// dynamic programming over the cut points. A greedy merge of neighbours
// would stop where one step costs more than it saves, as a zero-stuffing
// expander's rows do until the FIR after it joins.
func cheapestSplit(run []linRes) []linRes {
	n := len(run)
	// fires[i] is region i's firings per firing of region 0.
	fires := make([]float64, n)
	fires[0] = 1
	for i := 1; i < n; i++ {
		if run[i].rep.Pop == 0 {
			return append(cheapestSplit(run[:i]), cheapestSplit(run[i:])...)
		}
		fires[i] = fires[i-1] * float64(run[i-1].rep.Push) / float64(run[i].rep.Pop)
	}
	best := make([]float64, n+1) // best[k]: the least cost of run[:k]
	from := make([]int, n+1)     // the last group of that split is run[from[k]:k],
	group := make([]linRes, n+1) // combined into group[k]
	for k := 1; k <= n; k++ {
		best[k] = math.Inf(1)
	}
	for j := 0; j < n; j++ {
		g := run[j]
		for k := j + 1; k <= n; k++ {
			if k > j+1 {
				comb, err := CombinePipeline(g.rep, run[k-1].rep)
				if err != nil {
					break
				}
				g = linRes{rep: comb, nsrc: g.nsrc + run[k-1].nsrc}
			}
			// The group fires once per g.rep.Pop items into run[j], or,
			// headed by a source, once per g.rep.Push out of run[k-1].
			gFires := fires[j]
			switch {
			case g.rep.Pop > 0:
				gFires *= float64(run[j].rep.Pop) / float64(g.rep.Pop)
			case g.rep.Push > 0:
				gFires = fires[k-1] * float64(run[k-1].rep.Push) / float64(g.rep.Push)
			}
			if c := best[j] + gFires*float64(g.cost()); c < best[k] {
				best[k], from[k], group[k] = c, j, g
			}
		}
	}
	var out []linRes
	for k := n; k > 0; k = from[k] {
		out = append(out, group[k])
	}
	slices.Reverse(out)
	return out
}

// worthCombiningSJ: combining a split-join's linear branches pays off when
// the combined nest costs at most a quarter more than the branches per
// combined firing.
func worthCombiningSJ(kids []linRes, comb *Rep) bool {
	pair := 0.0
	for _, k := range kids {
		fires := 1.0
		if k.rep.Pop > 0 {
			fires = float64(comb.Pop) / float64(k.rep.Pop)
		}
		pair += fires * float64(k.cost())
	}
	return float64(nestCost(comb)) <= pair*1.25
}

// cost approximates a linear region's per-firing execution cost: one
// multiply-add per coefficient plus per-row overhead. A filter left as
// written is priced at its nonzero coefficients; a combined region runs
// as ToKernel's nest, which multiplies all of them (nestCost).
func (k linRes) cost() int {
	if k.stream == nil {
		return nestCost(k.rep)
	}
	return k.rep.NonZeros() + 2*k.rep.Push
}

// nestCost is the per-firing cost of ToKernel's nest for r, which
// multiplies every coefficient, zeros included.
func nestCost(r *Rep) int {
	return r.Peek*r.Push + 2*r.Push
}

// VerifyEquivalent checks that a replacement kernel computes the same
// function as a reference rep on a pseudo-random input stream; used by
// tests and as an internal sanity check in -verify modes.
func VerifyEquivalent(r *Rep, k *wfunc.Kernel, firings int) error {
	if r.Pop == 0 || k.Pop == 0 {
		return fmt.Errorf("linear: verification requires consuming filters")
	}
	if k.Pop%r.Pop != 0 && r.Pop%k.Pop != 0 {
		return fmt.Errorf("linear: rate mismatch between rep (%d) and kernel (%d)", r.Pop, k.Pop)
	}
	// Drive both over the same input and compare output prefixes.
	need := k.Peek + (firings-1)*k.Pop
	if alt := r.Peek + (firings*k.Pop/r.Pop-1)*r.Pop; alt > need {
		need = alt
	}
	input := make([]float64, need+r.Peek+k.Peek)
	seed := 1.0
	for i := range input {
		seed = seed*1103515245/65536 + 12345
		seed = float64(int64(seed) % 1000)
		input[i] = seed / 100
	}
	got, err := wfunc.RunKernel(k, input)
	if err != nil {
		return err
	}
	var want []float64
	for off := 0; off+r.Peek <= len(input); off += r.Pop {
		out, err := r.Apply(input[off:])
		if err != nil {
			return err
		}
		want = append(want, out...)
	}
	nCmp := len(got)
	if len(want) < nCmp {
		nCmp = len(want)
	}
	for i := 0; i < nCmp; i++ {
		if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("linear: replacement diverges at output %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

package linear

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// Options control the linear optimizer.
type Options struct {
	// Combine collapses adjacent linear filters (pipelines and split-joins)
	// into single matrix filters when the estimated cost decreases.
	Combine bool
	// Frequency translates convolution-shaped linear filters into
	// overlap-save FFT kernels when beneficial.
	Frequency bool
	// Block is the output block size for frequency kernels (default 64).
	Block int
	// Force applies transformations even when the cost model predicts no
	// benefit (used by ablation benchmarks).
	Force bool
	// Verify cross-checks every generated replacement kernel against its
	// linear representation on a pseudo-random stream before accepting it;
	// failures abort the optimization with an error.
	Verify bool
}

// DefaultOptions enables everything with the standard block size.
func DefaultOptions() Options {
	return Options{Combine: true, Frequency: true, Block: 64}
}

// Report summarizes what the optimizer did.
type Report struct {
	LinearFilters  int // linear filters detected
	TotalFilters   int
	Combined       int // filters removed by combination
	FreqTranslated int // filters converted to frequency domain
	MatrixReplaced int // regions replaced by direct matrix kernels
	Notes          []string
}

// Optimize rewrites a hierarchical stream, replacing linear regions with
// collapsed matrix filters and/or frequency-domain kernels. The input
// stream is not modified; shared filters are reused where untouched.
func Optimize(s ir.Stream, opt Options, rep *Report) (ir.Stream, error) {
	if opt.Block <= 0 {
		opt.Block = 64
	}
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
	opt  Options
	rep  *Report
	uniq int
	err  error
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

func (o *optimizer) name(prefix string) string {
	o.uniq++
	return fmt.Sprintf("%s_%d", prefix, o.uniq)
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
	if !o.opt.Combine {
		out := &ir.Pipeline{Name: p.Name}
		for _, k := range kids {
			out.Add(o.finalize(k))
		}
		return linRes{stream: out}, nil
	}

	// Merge maximal runs of linear children.
	var merged []linRes
	for _, k := range kids {
		if k.rep != nil && len(merged) > 0 && merged[len(merged)-1].rep != nil {
			prev := &merged[len(merged)-1]
			comb, err := CombinePipeline(prev.rep, k.rep)
			if err == nil && (o.opt.Force || worthCombining(prev.rep, k.rep, comb)) {
				prev.rep = comb
				prev.nsrc += k.nsrc
				prev.stream = nil // replaced on finalize
				continue
			}
		}
		merged = append(merged, k)
	}
	if len(merged) == 1 && merged[0].rep != nil {
		// Whole pipeline is one linear region: let the parent keep
		// combining; finalize only at the top.
		return merged[0], nil
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
		if err == nil && (o.opt.Force || worthCombiningSJ(reps, comb)) {
			return linRes{rep: comb, nsrc: total}, nil
		}
	}
	out := &ir.SplitJoin{Name: sj.Name, Split: sj.Split, Join: sj.Join}
	for _, k := range kids {
		out.Add(o.finalize(k))
	}
	return linRes{stream: out}, nil
}

// finalize materializes a linear region as a concrete filter: a frequency
// kernel when profitable, else a direct matrix kernel, else the original
// stream when the region is a single untouched filter.
func (o *optimizer) finalize(k linRes) ir.Stream {
	if k.rep == nil {
		return k.stream
	}
	if k.stream != nil && k.nsrc <= 1 {
		// Single linear filter: consider frequency translation only.
		if repl := o.maybeFreq(k.rep); repl != nil {
			return repl
		}
		return k.stream
	}
	// A combined region.
	o.rep.Combined += k.nsrc - 1
	if repl := o.maybeFreq(k.rep); repl != nil {
		return repl
	}
	o.rep.MatrixReplaced++
	kern := ToKernel(o.name("LinearMatrix"), k.rep)
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

func (o *optimizer) maybeFreq(r *Rep) ir.Stream {
	if !o.opt.Frequency || !r.Toeplitz() {
		return nil
	}
	if r.B[0] != 0 {
		return nil // affine offset not supported by the frequency kernel
	}
	taps := r.Taps()
	// Pick the block size minimizing estimated cost per output; Options.
	// Block acts as a lower bound on the candidates considered.
	best, bestCost := 0, 0.0
	for _, blk := range []int{64, 128, 256, 512, 1024, 2048} {
		if blk < o.opt.Block {
			continue
		}
		c := FreqCostPerOutput(len(taps), blk)
		if best == 0 || c < bestCost {
			best, bestCost = blk, c
		}
	}
	if best == 0 {
		best, bestCost = o.opt.Block, FreqCostPerOutput(len(taps), o.opt.Block)
	}
	if !o.opt.Force && bestCost >= DirectCostPerOutput(r) {
		return nil
	}
	kern, err := FreqKernel(o.name("LinearFreq"), taps, best)
	if err != nil {
		return nil
	}
	o.verify(r, kern)
	o.rep.FreqTranslated++
	return &ir.Filter{Kernel: kern, In: ir.TypeFloat, Out: ir.TypeFloat}
}

// worthCombining: combining two pipelined linear filters pays off when the
// combined matrix does no more multiplies per steady output than the pair.
func worthCombining(f, g, comb *Rep) bool {
	// Costs per combined firing: the pair executes f and g enough times to
	// match comb's rates.
	u := lcm(f.Push, g.Pop)
	fFires := u / f.Push
	gFires := u / g.Pop
	pairCost := float64(fFires*costOf(f) + gFires*costOf(g))
	return float64(costOf(comb)) <= pairCost*1.05
}

func worthCombiningSJ(reps []*Rep, comb *Rep) bool {
	pair := 0.0
	for _, r := range reps {
		fires := 1.0
		if r.Pop > 0 {
			fires = float64(comb.Pop) / float64(r.Pop)
		}
		pair += fires * float64(costOf(r))
	}
	return float64(costOf(comb)) <= pair*1.25
}

// costOf approximates a rep's per-firing execution cost: one multiply-add
// per nonzero coefficient plus per-row overhead. ToKernel's nest
// multiplies the zeros too, four rows at a time; the count is the
// interpreter-era model the optimiser's decisions still rest on.
func costOf(r *Rep) int {
	return r.NonZeros() + 2*r.Push
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

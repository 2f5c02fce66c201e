package fuse

import (
	"math"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// dropped is the liveness pass, tail first. Trip t of a stage stores its
// j-th push at cell t·push + j of its edge array; it is dead when no kept
// trip of the next stage reads those cells (each reads cells [lo, hi) of
// its stage's window), and dropped when it cannot fault either: a head's
// trip must read inside the fused window given the pops before it, and
// its window be exact. Nothing goes unless every other stage's window is
// exact (and so inside it: Chain refused a stage that reads past it), and
// a stage keeps every trip rather than more than two copies of its body.
// The last stage, the only one CanFollow lets write fields, keeps every
// trip.
func dropped(filters []*ir.Filter, mult []int) ([][]bool, []Trips) {
	n := len(filters)
	drop, wins, trips := make([][]bool, n), make([]window, n), make([]Trips, n)
	for i := range drop {
		drop[i], trips[i], wins[i] = make([]bool, mult[i]), Trips{Kept: mult[i], Of: mult[i]}, reach(filters[i].Kernel)
	}
	if slices.ContainsFunc(wins[1:], func(w window) bool { return !w.exact() }) {
		return drop, trips
	}
	head := filters[0].Kernel
	for i := n - 2; i >= 0; i-- {
		push, pop, w := filters[i].Kernel.Push, filters[i+1].Kernel.Pop, wins[i+1]
		read := make([]bool, mult[i]*push)
		for s, d := range drop[i+1] {
			for k := w.lo; !d && k < w.hi; k++ {
				read[s*pop+k] = true
			}
		}
		ds, kept := make([]bool, mult[i]), 0
		for t := range ds {
			if ds[t] = !slices.Contains(read[t*push:(t+1)*push], true); ds[t] && i == 0 {
				ds[t] = wins[0].exact() && wins[0].hi <= (mult[0]-1-t)*head.Pop+head.Peek
			}
			if !ds[t] {
				kept++
			}
		}
		if mult[i] > 1 && kept <= 2 {
			drop[i], trips[i].Kept = ds, kept
		}
	}
	return drop, trips
}

// trips emits a stage's trips, iter each, but of a run of dropped trips
// only the pops: the head's real ones, elsewhere the cursors' moves.
func (s *stage) trips(out, iter []wfunc.Stmt, drop []bool, fr *frame, k *wfunc.Kernel) []wfunc.Stmt {
	if !slices.Contains(drop, true) {
		return append(out, &wfunc.For{Var: fr.local(), From: wfunc.Ci(0), To: wfunc.Ci(len(drop)), Body: iter})
	}
	n := 0
	skip := func() {
		if s.in.real() && n > 0 {
			out = append(out, wfunc.ForUp(&wfunc.LocalRef{Idx: fr.local()}, wfunc.Ci(0), wfunc.Ci(n*k.Pop), wfunc.Pop1()))
		}
		in, o := s.in, s.out
		in.pend, o.pend = n*k.Pop, n*k.Push
		out, n = o.sync(in.sync(out)), 0
	}
	for _, d := range drop {
		if d {
			n++
			continue
		}
		skip()
		out = append(out, iter...)
	}
	skip()
	return out
}

// window is what one firing of a work body reads of its input: cells
// [lo, hi), lo > hi when it reads none. It is settled when every peek
// index, the place of every pop and every array index is computed from
// constants and counted-loop variables under + - * % and negation, and
// every array index lies inside its array (init's arrays, if more, size
// the frame's); branched when the body has an if, ?:, && or ||. A peek
// whose index range lies below 0, or reaches below 0 with no branch before
// it, takes lo below 0, settled or not: on a tape such a peek faults, in
// an edge array it would read an item already popped. A range can be wider
// than the values, so the second case may also catch a peek that never
// goes below 0.
type window struct {
	lo, hi            int
	settled, branched bool
}

// reach finds k's window in one pass over its work body, unrolling
// nothing: a counted loop's variable is a range, the pops so far are a
// range (the arms of a branch joined, exact again after a counted loop),
// a peek at x reads [pops.lo+x.lo, pops.hi+x.hi] and a pop() reads
// [pops.lo, pops.hi]. A while loop, a print, a break or continue, a
// stepped loop or one that assigns its own variable leaves it unsettled.
func reach(k *wfunc.Kernel) window {
	r := &reacher{arrays: k.Work.ArraySizes, vars: make([]span, k.Work.NumLocals),
		window: window{lo: math.MaxInt, settled: k.Init == nil || len(k.Init.ArraySizes) <= len(k.Work.ArraySizes)}}
	for i := range r.vars {
		r.vars[i].lo = math.NaN()
	}
	for _, f := range k.Fields {
		if f.Size > 0 {
			r.fields = append(r.fields, f.Size)
		}
	}
	r.block(k.Work.Body)
	return r.window
}

// exact is a window dead trips may rely on: settled, with no branch and
// no read below 0.
func (w window) exact() bool { return w.settled && !w.branched && w.lo >= 0 }

type span struct{ lo, hi float64 }

func (s span) plus(n float64) span { return span{s.lo + n, s.hi + n} }

type reacher struct {
	window
	arrays, fields []int
	vars           []span // by local: a live loop variable's range, else lo NaN
	pops           span
}

func (r *reacher) live(l int) bool { return !math.IsNaN(r.vars[l].lo) }

func (r *reacher) block(body []wfunc.Stmt) {
	for _, st := range body {
		if !r.settled {
			return
		}
		switch st := st.(type) {
		case *wfunc.Assign:
			r.expr(st.X)
			switch st.LHS.Kind {
			case wfunc.LVLocal:
				r.settled = r.settled && !r.live(st.LHS.Idx)
			case wfunc.LVLocalArr:
				r.index(st.LHS.Index, r.arrays, st.LHS.Idx)
			case wfunc.LVFieldArr:
				r.index(st.LHS.Index, r.fields, st.LHS.Idx)
			}
		case *wfunc.PushStmt:
			r.expr(st.X)
		case *wfunc.PopStmt:
			r.pops = r.pops.plus(1)
		case *wfunc.If:
			r.expr(st.C)
			r.arms(func() { r.block(st.Then) }, func() { r.block(st.Else) })
		case *wfunc.For:
			trips, counted := wfunc.ConstTrip(st)
			io := wfunc.CountIO(st.Body)
			if r.settled = counted && st.Step == nil && !r.live(st.Var) && io.Known; !r.settled || trips == 0 {
				continue
			}
			from, per := st.From.(*wfunc.Const).V, float64(io.Pops)
			entry := r.pops
			r.vars[st.Var] = span{from, from + float64(trips-1)}
			r.pops.hi += float64(trips-1) * per
			r.block(st.Body)
			r.vars[st.Var].lo = math.NaN()
			r.pops = entry.plus(float64(trips) * per)
		default:
			r.settled = false
		}
	}
}

// expr visits e in evaluation order and returns its range when constants
// and loop variables alone give it.
func (r *reacher) expr(e wfunc.Expr) (span, bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		return span{e.V, e.V}, true
	case *wfunc.LocalRef:
		return r.vars[e.Idx], r.live(e.Idx)
	case *wfunc.FieldRef:
	case *wfunc.LocalIndex:
		r.index(e.Index, r.arrays, e.Arr)
	case *wfunc.FieldIndex:
		r.index(e.Index, r.fields, e.Arr)
	case *wfunc.Peek:
		x, known := r.expr(e.Index)
		if known && (x.hi < 0 || x.lo < 0 && !r.branched) {
			r.lo = min(r.lo, int(x.lo))
		}
		if r.settled = r.settled && known && x.lo >= 0; r.settled {
			r.read(r.pops.lo+x.lo, r.pops.hi+x.hi)
		}
	case *wfunc.PopExpr:
		r.read(r.pops.lo, r.pops.hi)
		r.pops = r.pops.plus(1)
	case *wfunc.Unary:
		x, known := r.expr(e.X)
		if e.Op == wfunc.Neg {
			return span{-x.hi, -x.lo}, known
		}
	case *wfunc.Binary:
		x, knownX := r.expr(e.A)
		if e.Op == wfunc.And || e.Op == wfunc.Or {
			r.arms(func() { r.expr(e.B) }, func() {})
			return span{}, false
		}
		y, knownY := r.expr(e.B)
		if !knownX || !knownY {
			return span{}, false
		}
		switch e.Op {
		case wfunc.Add:
			return span{x.lo + y.lo, x.hi + y.hi}, true
		case wfunc.Sub:
			return span{x.lo - y.hi, x.hi - y.lo}, true
		case wfunc.Mul:
			p := []float64{x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi}
			return span{slices.Min(p), slices.Max(p)}, true
		case wfunc.Mod:
			if m := int64(y.lo); y.lo == y.hi && m >= 1 && x.lo >= 0 {
				return span{0, min(float64(int64(x.hi)), float64(m-1))}, true
			}
		}
	case *wfunc.Cond:
		r.expr(e.C)
		r.arms(func() { r.expr(e.A) }, func() { r.expr(e.B) })
	default:
		r.settled = false
	}
	return span{}, false
}

// arms follows the two arms of a branch from the same pops and joins the
// pops after them.
func (r *reacher) arms(a, b func()) {
	r.branched = true
	entry := r.pops
	a()
	after := r.pops
	r.pops = entry
	b()
	r.pops = span{min(after.lo, r.pops.lo), max(after.hi, r.pops.hi)}
}

func (r *reacher) index(ix wfunc.Expr, sizes []int, slot int) {
	x, known := r.expr(ix)
	r.settled = r.settled && known && slot < len(sizes) && x.lo >= 0 && x.hi < float64(sizes[slot])
}

// read widens the window by cells [lo, hi]; a read past any window counts
// as one past 2^30.
func (r *reacher) read(lo, hi float64) {
	r.lo, r.hi = min(r.lo, int(lo)), max(r.hi, int(min(hi, 1<<30))+1)
}

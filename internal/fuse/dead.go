package fuse

import (
	"math"
	"slices"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// dropped is the liveness walk, tail first. Trip t of a stage stores its
// j-th push at cell t·push + j of its edge array; it is dead when no kept
// trip of the next stage reads those cells, and dropped when it cannot
// fault either: a head's trip must read inside the fused window given the
// pops before it. Nothing goes unless every other stage's indices are all
// proved (inside its window: Chain refused a stage that reads past it),
// and a stage keeps every trip rather than more than two copies of its
// body. The last stage, the only one CanFollow lets write fields, keeps
// every trip.
func dropped(filters []*ir.Filter, mult []int) ([][]bool, []Trips) {
	n := len(filters)
	drop, walks, trips := make([][]bool, n), make([]*walker, n), make([]Trips, n)
	for i := range drop {
		drop[i], trips[i] = make([]bool, mult[i]), Trips{Kept: mult[i], Of: mult[i]}
	}
	for i := 1; i < n; i++ {
		if walks[i] = walk(filters[i].Kernel); !walks[i].ok {
			return drop, trips
		}
	}
	head := filters[0].Kernel
	for i := n - 2; i >= 0; i-- {
		push, pop := filters[i].Kernel.Push, filters[i+1].Kernel.Pop
		read := make([]bool, mult[i]*push)
		for s, d := range drop[i+1] {
			for k, r := range walks[i+1].reads {
				read[s*pop+k] = read[s*pop+k] || r && !d
			}
		}
		ds, kept := make([]bool, mult[i]), 0
		for t := range ds {
			if ds[t] = !slices.Contains(read[t*push:(t+1)*push], true); ds[t] && i == 0 {
				if walks[0] == nil { // walked only for a dead trip
					walks[0] = walk(head)
				}
				ds[t] = walks[0].ok && walks[0].hi <= (mult[0]-1-t)*head.Pop+head.Peek
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

// walker follows one firing of a body of assignments, pushes, pops and
// unit-step counted loops, unrolled, for the items of its window it reads.
// ok falls at anything else, at && or ||, at a loop that assigns its
// variable, at an index not computed from constants and loop variables or
// outside its array (init's, if longer, size the frame's), at a long walk.
type walker struct {
	arrays, fields  []int
	vars            []float64 // by local: a loop variable's value, else NaN
	reads           []bool
	pops, hi, steps int // hi: one past the farthest item read
	ok              bool
}

func walk(k *wfunc.Kernel) *walker {
	w := &walker{arrays: k.Work.ArraySizes, vars: make([]float64, k.Work.NumLocals), reads: make([]bool, k.Peek),
		ok: k.Init == nil || len(k.Init.ArraySizes) <= len(k.Work.ArraySizes)}
	for i := range w.vars {
		w.vars[i] = math.NaN()
	}
	for _, f := range k.Fields {
		if f.Size > 0 {
			w.fields = append(w.fields, f.Size)
		}
	}
	w.block(k.Work.Body)
	return w
}

func (w *walker) block(body []wfunc.Stmt) {
	for _, st := range body {
		if w.steps++; !w.ok || w.steps > 1<<14 {
			w.ok = false
			return
		}
		switch st := st.(type) {
		case *wfunc.Assign:
			w.expr(st.X)
			switch st.LHS.Kind {
			case wfunc.LVLocal:
				w.ok = w.ok && math.IsNaN(w.vars[st.LHS.Idx])
			case wfunc.LVLocalArr:
				w.index(st.LHS.Index, w.arrays, st.LHS.Idx)
			case wfunc.LVFieldArr:
				w.index(st.LHS.Index, w.fields, st.LHS.Idx)
			}
		case *wfunc.PushStmt:
			w.expr(st.X)
		case *wfunc.PopStmt:
			w.pops++
		case *wfunc.For:
			if _, counted := wfunc.ConstTrip(st); !counted || st.Step != nil || !math.IsNaN(w.vars[st.Var]) {
				w.ok = false
				return
			}
			for v := st.From.(*wfunc.Const).V; w.ok && v < st.To.(*wfunc.Const).V; v++ {
				w.vars[st.Var] = v
				w.block(st.Body)
			}
			w.vars[st.Var] = math.NaN()
		default:
			w.ok = false
		}
	}
}

// expr follows e in evaluation order and returns its value if constants
// and loop variables alone give it.
func (w *walker) expr(e wfunc.Expr) (float64, bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		return e.V, true
	case *wfunc.LocalRef:
		return w.vars[e.Idx], !math.IsNaN(w.vars[e.Idx])
	case *wfunc.FieldRef:
	case *wfunc.LocalIndex:
		w.index(e.Index, w.arrays, e.Arr)
	case *wfunc.FieldIndex:
		w.index(e.Index, w.fields, e.Arr)
	case *wfunc.Peek:
		v, known := w.expr(e.Index)
		if w.ok = w.ok && known && v >= 0 && v < 1<<14; w.ok {
			w.read(w.pops + int(v))
		}
	case *wfunc.PopExpr:
		w.read(w.pops)
		w.pops++
	case *wfunc.Unary:
		x, known := w.expr(e.X)
		return wfunc.EvalUnary(e.Op, x), known
	case *wfunc.Binary:
		w.ok = w.ok && e.Op != wfunc.And && e.Op != wfunc.Or
		a, knownA := w.expr(e.A)
		b, knownB := w.expr(e.B)
		return wfunc.EvalBinary(e.Op, a, b), knownA && knownB
	default:
		w.ok = false
	}
	return 0, false
}

func (w *walker) index(ix wfunc.Expr, sizes []int, slot int) {
	v, known := w.expr(ix)
	w.ok = w.ok && known && slot < len(sizes) && v >= 0 && v < float64(sizes[slot])
}

func (w *walker) read(k int) {
	if k < len(w.reads) {
		w.reads[k] = true
	}
	w.hi = max(w.hi, k+1)
}

// bound returns an upper bound on walk's hi for k, or ok false where it
// cannot tell, without unrolling a loop: it follows the body once, gives a
// counted loop's variable its range, and bounds each peek index by
// interval arithmetic. A peek the body may reach after a pop fails it;
// pops alone read no further than k's declared pop rate.
func bound(k *wfunc.Kernel) (hi int, ok bool) {
	b := &bounder{vars: make([]span, k.Work.NumLocals), ok: true}
	for i := range b.vars {
		b.vars[i].lo = math.NaN()
	}
	b.block(k.Work.Body)
	return max(b.hi, k.Pop), b.ok
}

type span struct{ lo, hi float64 }

type bounder struct {
	vars   []span // by local: a live loop variable's range, else lo NaN
	popped bool   // a pop may have run
	hi     int
	ok     bool
}

func (b *bounder) block(body []wfunc.Stmt) {
	for _, st := range body {
		switch st := st.(type) {
		case *wfunc.Assign:
			b.expr(st.X)
			if st.LHS.Index != nil {
				b.expr(st.LHS.Index)
			}
			b.ok = b.ok && !(st.LHS.Kind == wfunc.LVLocal && b.live(st.LHS.Idx))
		case *wfunc.PushStmt:
			b.expr(st.X)
		case *wfunc.PopStmt:
			b.popped = true
		case *wfunc.If:
			b.expr(st.C)
			b.block(st.Then)
			b.block(st.Else)
		case *wfunc.For:
			trips, counted := wfunc.ConstTrip(st)
			if !counted || st.Step != nil || b.live(st.Var) {
				b.ok = false
				return
			}
			if trips == 0 {
				continue
			}
			from := st.From.(*wfunc.Const).V
			b.vars[st.Var] = span{from, from + float64(trips-1)}
			b.popped = b.popped || wfunc.CountIO(st.Body).Pops > 0
			b.block(st.Body)
			b.vars[st.Var].lo = math.NaN()
		default:
			b.ok = false
		}
	}
}

func (b *bounder) live(l int) bool { return !math.IsNaN(b.vars[l].lo) }

// expr visits e's peeks and returns its range when constants and loop
// variables alone give it.
func (b *bounder) expr(e wfunc.Expr) (span, bool) {
	switch e := e.(type) {
	case *wfunc.Const:
		return span{e.V, e.V}, true
	case *wfunc.LocalRef:
		return b.vars[e.Idx], b.live(e.Idx)
	case *wfunc.LocalIndex:
		b.expr(e.Index)
	case *wfunc.FieldIndex:
		b.expr(e.Index)
	case *wfunc.Peek:
		r, known := b.expr(e.Index)
		if b.ok = b.ok && known && !b.popped && r.lo >= 0 && r.hi < 1<<14; b.ok {
			b.hi = max(b.hi, int(r.hi)+1)
		}
	case *wfunc.PopExpr:
		b.popped = true
	case *wfunc.Unary:
		b.expr(e.X)
	case *wfunc.Binary:
		x, okX := b.expr(e.A)
		y, okY := b.expr(e.B)
		if !okX || !okY {
			return span{}, false
		}
		switch e.Op {
		case wfunc.Add:
			return span{x.lo + y.lo, x.hi + y.hi}, true
		case wfunc.Mul:
			p := []float64{x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi}
			return span{slices.Min(p), slices.Max(p)}, true
		case wfunc.Mod:
			if m := int64(y.lo); y.lo == y.hi && m >= 1 && x.lo >= 0 {
				return span{0, min(float64(int64(x.hi)), float64(m-1))}, true
			}
		}
	default:
		b.ok = false
	}
	return span{}, false
}

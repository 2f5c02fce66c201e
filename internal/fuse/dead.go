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
// pops before it. Nothing goes unless every other stage reads inside its
// own window with every index proved (else it might read cells another
// edge left in the array they share), and a stage keeps every trip rather
// than more than two copies of its body. The last stage, the only one
// CanFollow lets write fields, keeps every trip.
func dropped(filters []*ir.Filter, mult []int) ([][]bool, []Trips) {
	n := len(filters)
	drop, walks, trips := make([][]bool, n), make([]*walker, n), make([]Trips, n)
	for i := range drop {
		drop[i], trips[i] = make([]bool, mult[i]), Trips{Kept: mult[i], Of: mult[i]}
	}
	for i := 1; i < n; i++ {
		if walks[i] = walk(filters[i].Kernel); !walks[i].ok || walks[i].hi > filters[i].Kernel.Peek {
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

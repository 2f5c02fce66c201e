// Package fuse implements executable filter fusion: collapsing a pipeline
// of filters into one, the granularity-coarsening transformation the
// paper's compiler applies before partitioning.
//
// The fused filter is an ordinary IL kernel. Chain solves the pipeline's
// local repetition vector, renumbers every constituent's locals, local
// arrays and fields into one frame, wraps each stage's work body in a loop
// over its multiplicity, and turns the push/pop/peek operations on the
// edges between stages into stores and loads on local arrays (two in all:
// the stages run in turn, so the edges take turns too). A counted loop
// that moves an edge's cursor a constant number of times per trip indexes
// the array by its loop variable, per·v + k, with no position of its own:
// the VM's span instructions then take the fused loop as they took the
// stage's (vm's map.go stores to a local array as it pushes to a tape).
// Only the first stage reads the real input tape and only the last writes
// the real output, so nothing is fired twice and the engines, backends,
// checkpoints and profiler see a filter like any other.
//
// A dead trip — one of a stage's runs inside the fused firing whose pushes
// no kept run of the next stage reads, as a FIR's rows behind a decimator
// — keeps only its pops, if it provably cannot fault: its peeks inside the
// fused window given the pops before it, its array indices constants or
// counted-loop expressions inside their arrays, no branch, print or send
// (see dropped; planners scale a stage's work estimate by Chain's verdict).
//
// The paper's coarsening keeps the result as parallelisable as its parts:
// a filter that peeks beyond its pop rate may head a chain but never joins
// one (its peek history would have to become state of the fused filter),
// and only the last stage may write fields.
package fuse

import (
	"fmt"

	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// CanFollow reports why filter b cannot be fused directly behind filter a
// (nil when it can). Planners use it to cut a pipeline into fusable
// segments without fusing anything.
func CanFollow(a, b *ir.Filter) error {
	if err := follows(a, b); err != nil {
		return err
	}
	// Dry run of the consumer's rewrite: its pops must sit where a cursor
	// into the edge array can follow them.
	probe := stage{in: cursor{buf: 0}, out: tape}
	probe.block(b.Kernel.Work.Body)
	if probe.err != nil {
		return probe.err
	}
	return inWindow(b.Kernel)
}

// inWindow is the check of a stage behind a chain's head: such a stage
// reads an edge array, not a tape, so an item outside its window would be
// a cell of that array instead of a fault. Indices reach cannot settle
// pass, unless one takes the window's lo below 0.
func inWindow(k *wfunc.Kernel) error {
	switch w := reach(k); {
	case w.lo < 0:
		return fmt.Errorf("fuse: %s peeks at index %d; only a chain's head may read outside its window", k.Name, w.lo)
	case w.settled && w.hi > k.Peek:
		return fmt.Errorf("fuse: %s reads item %d of its input, past its window of %d; only a chain's head may read outside its window", k.Name, w.hi-1, k.Peek)
	}
	return nil
}

// follows is CanFollow's checks of the two filters' kinds and rates. Chain
// applies it to every adjacent pair; its own rewrite of each consumer
// fails as CanFollow's dry run does.
func follows(a, b *ir.Filter) error {
	for _, f := range []*ir.Filter{a, b} {
		k := f.Kernel
		switch {
		case f.WorkFn != nil:
			return fmt.Errorf("fuse: %s is a native filter with no IL to fuse", k.Name)
		case k.Dynamic:
			return fmt.Errorf("fuse: %s has dynamic rates", k.Name)
		case len(k.Handlers) > 0:
			return fmt.Errorf("fuse: %s has message handlers", k.Name)
		case wfunc.SendsMessages(k.Work):
			return fmt.Errorf("fuse: %s sends messages", k.Name)
		case !wfunc.CountIO(k.Work.Body).Known:
			return fmt.Errorf("fuse: the pops and pushes of %s cannot be counted statically", k.Name)
		}
	}
	ka, kb := a.Kernel, b.Kernel
	switch {
	case ka.Push == 0 || kb.Pop == 0:
		return fmt.Errorf("fuse: %s -> %s is not a data-carrying boundary", ka.Name, kb.Name)
	case wfunc.WritesFields(ka.Work):
		return fmt.Errorf("fuse: producer %s is stateful; only the last stage of a chain may write fields", ka.Name)
	case kb.Peek > kb.Pop:
		return fmt.Errorf("fuse: %s peeks %d items beyond its pop rate; a peeking filter may head a chain but never joins one (its peek history would become state)",
			kb.Name, kb.Peek-kb.Pop)
	}
	return nil
}

// Chain fuses filters, given in pipeline order, into a single filter with
// static rates
//
//	pop  = m[0] * pop[0]
//	push = m[n-1] * push[n-1]
//	peek = (m[0]-1) * pop[0] + peek[0]
//
// where m is the minimal repetition vector of the chain. Every adjacent
// pair must satisfy CanFollow, and Chain reports the first that does not:
// a kind or rate in pair order, else the first stage whose rewrite fails.
// trips[i] counts how many of filter i's m[i] firings inside one fused
// firing are kept whole.
func Chain(name string, filters ...*ir.Filter) (f *ir.Filter, trips []Trips, err error) {
	n := len(filters)
	if n < 2 {
		return nil, nil, fmt.Errorf("fuse: a chain needs at least two filters, got %d", n)
	}
	for i := 1; i < n; i++ {
		if err := follows(filters[i-1], filters[i]); err != nil {
			return nil, nil, err
		}
		if err := inWindow(filters[i].Kernel); err != nil {
			return nil, nil, err
		}
	}
	mult := repetitions(filters)

	// Frame layout: every stage's own slots first (the init function needs
	// no more), then the edge arrays and their cursors, then loop counters.
	var fr frame
	stages := make([]*stage, n)
	for i, f := range filters {
		k := f.Kernel
		st := &stage{loc: fr.locals, arr: len(fr.arrays), fld: fr.scalars, farr: fr.fieldArrs, in: tape, out: tape}
		st.nloc, st.narr = k.Work.NumLocals, k.Work.ArraySizes
		if k.Init != nil {
			st.nloc = max(st.nloc, k.Init.NumLocals)
			if len(k.Init.ArraySizes) > len(st.narr) {
				st.narr = k.Init.ArraySizes
			}
		}
		fr.locals += st.nloc
		fr.arrays = append(fr.arrays, st.narr...)
		for _, fs := range k.Fields {
			if fs.Size == 0 {
				fr.scalars++
			} else {
				fr.fieldArrs++
			}
		}
		fr.fields = append(fr.fields, k.Fields...)
		stages[i] = st
	}
	head, tail := filters[0].Kernel, filters[n-1].Kernel
	kern := &wfunc.Kernel{
		Name:   name,
		Peek:   (mult[0]-1)*head.Pop + head.Peek,
		Pop:    mult[0] * head.Pop,
		Push:   mult[n-1] * tail.Push,
		Fields: fr.fields,
	}

	var initBody []wfunc.Stmt
	for i, f := range filters {
		if f.Kernel.Init != nil {
			initBody = append(initBody, stages[i].block(f.Kernel.Init.Body)...)
		}
	}
	if len(initBody) > 0 {
		kern.Init = &wfunc.Func{Name: name + ".init", Body: initBody,
			NumLocals: fr.locals, ArraySizes: append([]int(nil), fr.arrays...)}
	}

	// The stages run one after another, so an edge's items are dead once its
	// consumer has run: the edges take turns in two arrays, each as large as
	// the largest edge it hosts, and a long chain's frame stays in cache.
	var turn [2]int
	for i := 0; i+1 < n; i++ {
		size := mult[i] * filters[i].Kernel.Push
		if i < len(turn) {
			turn[i] = fr.array(size)
		}
		buf := turn[i%len(turn)]
		fr.arrays[buf] = max(fr.arrays[buf], size)
		stages[i].out = cursor{buf: buf, pos: fr.local(), known: mult[i] == 1}
		stages[i+1].in = cursor{buf: buf, pos: fr.local(), known: mult[i+1] == 1}
	}
	drop, trips := dropped(filters, mult)
	var work []wfunc.Stmt
	for i, f := range filters {
		st, body := stages[i], f.Kernel.Work.Body
		if mult[i] == 1 {
			work = append(work, st.block(body)...)
			continue
		}
		// Locals start every firing at zero; a stage that fires several
		// times inside one fused firing has to see that again.
		iter := st.rezero(&fr)
		iter = append(iter, st.block(body)...)
		iter = st.out.sync(st.in.sync(iter))
		work = st.trips(work, iter, drop[i], &fr, f.Kernel)
	}
	for _, st := range stages {
		if st.err != nil {
			return nil, nil, st.err
		}
	}
	kern.Work = &wfunc.Func{Name: name + ".work", Body: work, NumLocals: fr.locals, ArraySizes: fr.arrays}
	if err := wfunc.Validate(kern); err != nil {
		return nil, nil, fmt.Errorf("fuse: %w", err)
	}
	return &ir.Filter{Kernel: kern, In: filters[0].In, Out: filters[n-1].Out}, trips, nil
}

// Trips counts a stage's firings inside one fused firing: Of in all, Kept
// of them whole. Of the others, dead trips, only the pops are left.
type Trips struct{ Kept, Of int }

// Name is the conventional name of the chain of filters, "a+b+c": fault
// plans split fused instance names at the plus signs to find the
// constituents.
func Name(filters []*ir.Filter) string {
	name := filters[0].Kernel.Name
	for _, f := range filters[1:] {
		name += "+" + f.Kernel.Name
	}
	return name
}

// repetitions solves the chain's balance equations
// m[i]*push[i] = m[i+1]*pop[i+1] for the minimal positive integers.
func repetitions(filters []*ir.Filter) []int {
	m := make([]int, len(filters))
	m[0] = 1
	for i := 1; i < len(filters); i++ {
		produced := m[i-1] * filters[i-1].Kernel.Push
		pop := filters[i].Kernel.Pop
		if scale := pop / gcd(produced, pop); scale > 1 {
			for j := 0; j < i; j++ {
				m[j] *= scale
			}
			produced *= scale
		}
		m[i] = produced / pop
	}
	return m
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// frame accumulates the fused kernel's slots.
type frame struct {
	locals             int
	arrays             []int
	fields             []wfunc.FieldSpec
	scalars, fieldArrs int
}

func (fr *frame) local() int {
	fr.locals++
	return fr.locals - 1
}

func (fr *frame) array(size int) int {
	fr.arrays = append(fr.arrays, size)
	return len(fr.arrays) - 1
}

// cursor is a stage's position in the local array standing in for one of
// its tapes: the read position of its input or the write position of its
// output. The position is either a compile-time constant (known: the stage
// fires once and no loop has moved the cursor yet) or lives in local pos;
// either way pend items have been consumed or produced since it was last
// brought up to date, so straight-line code indexes the array at constant
// distances and pays for one addition per block, not one per item.
type cursor struct {
	buf   int // local array slot; negative for a real tape
	pos   int // scalar local holding the position once it is not known
	known bool
	pend  int
	// loopMoves: the innermost enclosing loop moves this cursor, so break
	// and continue must bring pos up to date before they leave the body.
	loopMoves bool
	// ride: inside a loop that moves the cursor in step with its variable
	// (see rides), that variable; the position is pend beyond it.
	ride wfunc.Expr
}

// tape is the cursor of a stage end that meets the fused filter's real
// input or output: its tape operations stay tape operations.
var tape = cursor{buf: -1}

func (c *cursor) real() bool { return c.buf < 0 }

// index is the array index of the item off (+ ix, when non-nil) places
// beyond the cursor.
func (c *cursor) index(off int, ix wfunc.Expr) wfunc.Expr {
	off += c.pend
	if k, ok := ix.(*wfunc.Const); ok {
		off, ix = off+int(k.V), nil
	}
	var e wfunc.Expr
	if !c.known {
		e = &wfunc.LocalRef{Idx: c.pos}
	}
	if off != 0 || e == nil && c.ride == nil && ix == nil {
		e = sum(e, wfunc.Ci(off))
	}
	return sum(sum(e, c.ride), ix)
}

func sum(a, b wfunc.Expr) wfunc.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &wfunc.Binary{Op: wfunc.Add, A: a, B: b}
}

// pending is the statement that brings pos up to date, nil when it is.
func (c *cursor) pending() wfunc.Stmt {
	lhs := wfunc.LValue{Kind: wfunc.LVLocal, Idx: c.pos}
	switch {
	case c.real() || c.pend == 0:
		// A known cursor at zero needs nothing either: locals start at zero.
		return nil
	case c.known:
		return &wfunc.Assign{LHS: lhs, X: wfunc.Ci(c.pend)}
	}
	return &wfunc.Assign{LHS: lhs, X: &wfunc.Binary{Op: wfunc.Add, A: &wfunc.LocalRef{Idx: c.pos}, B: wfunc.Ci(c.pend)}}
}

// sync brings pos up to date and makes it the cursor's position from here
// on: required before control flow that moves the cursor, and at the end
// of a block that did.
func (c *cursor) sync(out []wfunc.Stmt) []wfunc.Stmt {
	if s := c.pending(); s != nil {
		out = append(out, s)
	}
	if !c.real() {
		c.known, c.pend = false, 0
	}
	return out
}

// stage rewrites one constituent's IL into the fused frame.
type stage struct {
	loc, arr, fld, farr int   // offsets of its locals, local arrays, scalar fields, field arrays
	nloc                int   // its own scalar locals
	narr                []int // its own local arrays
	in, out             cursor
	err                 error
}

func (s *stage) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("fuse: "+format, args...)
	}
}

func (s *stage) block(body []wfunc.Stmt) []wfunc.Stmt {
	var out []wfunc.Stmt
	for _, st := range body {
		out = s.stmt(out, st)
	}
	return out
}

func (s *stage) stmt(out []wfunc.Stmt, st wfunc.Stmt) []wfunc.Stmt {
	pops := 0
	switch st := st.(type) {
	case *wfunc.Assign:
		// Value before index, like the interpreter and the VM.
		x := s.expr(st.X, &pops, "")
		lhs := wfunc.LValue{Kind: st.LHS.Kind, Idx: st.LHS.Idx}
		switch lhs.Kind {
		case wfunc.LVLocal:
			lhs.Idx += s.loc
		case wfunc.LVField:
			lhs.Idx += s.fld
		case wfunc.LVLocalArr:
			lhs.Idx += s.arr
		case wfunc.LVFieldArr:
			lhs.Idx += s.farr
		}
		if st.LHS.Index != nil {
			lhs.Index = s.expr(st.LHS.Index, &pops, "")
		}
		out = append(out, &wfunc.Assign{LHS: lhs, X: x})
	case *wfunc.PushStmt:
		x := s.expr(st.X, &pops, "")
		if s.out.real() {
			out = append(out, &wfunc.PushStmt{X: x})
		} else {
			out = append(out, &wfunc.Assign{X: x,
				LHS: wfunc.LValue{Kind: wfunc.LVLocalArr, Idx: s.out.buf, Index: s.out.index(0, nil)}})
			s.out.pend++
		}
	case *wfunc.PopStmt:
		if s.in.real() {
			return append(out, st)
		}
		pops = 1
	case *wfunc.Print:
		out = append(out, &wfunc.Print{X: s.expr(st.X, &pops, "")})
	case *wfunc.Break, *wfunc.Continue:
		for _, c := range []*cursor{&s.in, &s.out} {
			if p := c.pending(); p != nil && c.loopMoves {
				out = append(out, p)
			}
		}
		return append(out, st)
	case *wfunc.For:
		// The idiom that ends most work bodies, a counted loop of bare pops,
		// only moves the cursor: no loop is left of it.
		trip, counted := wfunc.ConstTrip(st)
		if !counted || s.in.real() || !barePops(st.Body) {
			return s.nested(out, st)
		}
		step := 1.0
		if st.Step != nil {
			step = st.Step.(*wfunc.Const).V
		}
		pops = trip * len(st.Body)
		out = append(out, &wfunc.Assign{LHS: wfunc.LValue{Kind: wfunc.LVLocal, Idx: st.Var + s.loc},
			X: wfunc.C(st.From.(*wfunc.Const).V + float64(trip)*step)})
	case *wfunc.If, *wfunc.While:
		return s.nested(out, st)
	default:
		s.fail("statement %T cannot be fused", st)
	}
	if !s.in.real() {
		s.in.pend += pops
	}
	return out
}

func barePops(body []wfunc.Stmt) bool {
	for _, st := range body {
		if _, ok := st.(*wfunc.PopStmt); !ok {
			return false
		}
	}
	return true
}

// nested rewrites a statement with blocks inside. A cursor the statement
// moves is brought up to date before it and at the end of each of its
// blocks, so every path leaves pos current; a cursor it only reads, or does
// not touch, keeps its constant distances straight through.
func (s *stage) nested(out []wfunc.Stmt, st wfunc.Stmt) []wfunc.Stmt {
	io := wfunc.CountIO([]wfunc.Stmt{st})
	cur := [2]*cursor{&s.in, &s.out}
	moved := [2]int{io.Pops, io.Pushes}
	var per [2]int // moves per trip of a cursor that rides the loop
	if f, ok := st.(*wfunc.For); ok {
		per = [2]int{cur[0].rides(f, moved[0], false), cur[1].rides(f, moved[1], true)}
	}
	var moves [2]bool
	for i, c := range cur {
		if moves[i] = !c.real() && moved[i] > 0 && per[i] == 0; moves[i] {
			out = c.sync(out)
		}
	}
	before := [2]cursor{s.in, s.out}
	entry := before
	inner := func(body []wfunc.Stmt) []wfunc.Stmt {
		s.in, s.out = entry[0], entry[1]
		b := s.block(body)
		for i, c := range cur {
			if moves[i] {
				b = c.sync(b)
			}
		}
		return b
	}
	switch st := st.(type) {
	case *wfunc.If:
		pops := 0
		c := s.expr(st.C, &pops, "")
		entry[0].pend += pops
		out = append(out, &wfunc.If{C: c, Then: inner(st.Then), Else: inner(st.Else)})
	case *wfunc.For:
		f := &wfunc.For{Var: st.Var + s.loc, From: s.header(st.From), To: s.header(st.To)}
		if st.Step != nil {
			f.Step = s.header(st.Step)
		}
		for i := range entry {
			entry[i].loopMoves = moves[i]
			if per[i] > 0 {
				var v wfunc.Expr = &wfunc.LocalRef{Idx: f.Var}
				if per[i] > 1 {
					v = &wfunc.Binary{Op: wfunc.Mul, A: v, B: wfunc.Ci(per[i])}
				}
				entry[i].ride = v
				entry[i].pend -= int(st.From.(*wfunc.Const).V) * per[i]
				before[i].pend += moved[i]
			}
		}
		f.Body = inner(st.Body)
		out = append(out, f)
	case *wfunc.While:
		c := s.header(st.C)
		entry[0].loopMoves, entry[1].loopMoves = moves[0], moves[1]
		out = append(out, &wfunc.While{C: c, Body: inner(st.Body)})
	}
	s.in, s.out = before[0], before[1]
	return out
}

// header rewrites a loop bound or condition: evaluated once per iteration,
// it may peek but not pop.
func (s *stage) header(e wfunc.Expr) wfunc.Expr {
	pops := 0
	return s.expr(e, &pops, "a loop bound or condition")
}

// rides returns how many times counted loop f moves the cursor per trip
// if the cursor, at a known place before f, stays at a constant distance
// from per·v inside it for f's loop variable v — zero if it does not: the
// loop steps by one and every statement of its body that moves the cursor
// is a plain one, so trip v's k-th move is at per·v + k from a constant
// base. Such a loop needs no position of its own: the commonest shape of
// all, for i { push(g(peek(i))) }, indexes both its arrays by i, and an
// S-box's for i { v = ...; push(v / 8 % 2); ... push(v % 2) } stores at
// 4i, 4i+1, 4i+2 and 4i+3. Like CountIO's trip counts this takes the body
// to leave the loop variable alone, which CanFollow's Known check
// guarantees: CountIO does not count a loop that assigns its variable.
func (c *cursor) rides(f *wfunc.For, moved int, pushes bool) int {
	trip, counted := wfunc.ConstTrip(f)
	if c.real() || !c.known || !counted || trip == 0 || moved == 0 {
		return 0
	}
	if step, ok := f.Step.(*wfunc.Const); f.Step != nil && !(ok && step.V == 1) {
		return 0
	}
	per := 0
	for _, st := range f.Body {
		io := wfunc.CountIO([]wfunc.Stmt{st})
		n := io.Pops
		if pushes {
			n = io.Pushes
		}
		if n == 0 {
			continue // leaves this cursor where it is
		}
		switch st.(type) {
		case *wfunc.If, *wfunc.For, *wfunc.While:
			return 0
		}
		per += n
	}
	if per*trip != moved {
		return 0
	}
	return per
}

// expr rewrites an expression. pops counts the pops evaluated so far in the
// enclosing statement: the k-th reads k places beyond the input cursor, and
// a peek reads relative to whatever has been popped before it. A pop that
// is not evaluated exactly once per statement (guard names where it sits)
// has no constant place and refuses the fusion.
func (s *stage) expr(e wfunc.Expr, pops *int, guard string) wfunc.Expr {
	switch e := e.(type) {
	case *wfunc.Const:
		return e
	case *wfunc.LocalRef:
		return &wfunc.LocalRef{Idx: e.Idx + s.loc}
	case *wfunc.FieldRef:
		return &wfunc.FieldRef{Idx: e.Idx + s.fld}
	case *wfunc.LocalIndex:
		return &wfunc.LocalIndex{Arr: e.Arr + s.arr, Index: s.expr(e.Index, pops, guard)}
	case *wfunc.FieldIndex:
		return &wfunc.FieldIndex{Arr: e.Arr + s.farr, Index: s.expr(e.Index, pops, guard)}
	case *wfunc.Peek:
		ix := s.expr(e.Index, pops, guard)
		if s.in.real() {
			return &wfunc.Peek{Index: ix}
		}
		return &wfunc.LocalIndex{Arr: s.in.buf, Index: s.in.index(*pops, ix)}
	case *wfunc.PopExpr:
		if s.in.real() {
			return e
		}
		if guard != "" {
			s.fail("a pop inside %s has no fixed place in the fused input window", guard)
			return e
		}
		*pops++
		return &wfunc.LocalIndex{Arr: s.in.buf, Index: s.in.index(*pops-1, nil)}
	case *wfunc.Unary:
		return &wfunc.Unary{Op: e.Op, X: s.expr(e.X, pops, guard)}
	case *wfunc.Binary:
		a := s.expr(e.A, pops, guard)
		if e.Op == wfunc.And || e.Op == wfunc.Or {
			guard = "a short-circuit operand"
		}
		return &wfunc.Binary{Op: e.Op, A: a, B: s.expr(e.B, pops, guard)}
	case *wfunc.Cond:
		c := s.expr(e.C, pops, guard)
		const arm = "a conditional arm"
		return &wfunc.Cond{C: c, A: s.expr(e.A, pops, arm), B: s.expr(e.B, pops, arm)}
	}
	s.fail("expression %T cannot be fused", e)
	return e
}

// rezero returns the statements that put the stage's locals and local
// arrays back to zero: what its body may rely on at the top of each firing.
func (s *stage) rezero(fr *frame) []wfunc.Stmt {
	var out []wfunc.Stmt
	for idx := 0; idx < s.nloc; idx++ {
		out = append(out, &wfunc.Assign{LHS: wfunc.LValue{Kind: wfunc.LVLocal, Idx: idx + s.loc}, X: wfunc.Ci(0)})
	}
	for arr, size := range s.narr {
		v := &wfunc.LocalRef{Idx: fr.local()}
		out = append(out, wfunc.ForUp(v, wfunc.Ci(0), wfunc.Ci(size), wfunc.SetLIdx(arr+s.arr, v, wfunc.Ci(0))))
	}
	return out
}

package vm

import (
	"slices"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/wfunc"
)

// firKernel builds the canonical hot work function — an n-tap FIR
// accumulation loop — for microbenchmarking the execution substrates in
// isolation (no engine, no scheduling, a bare ring).
func firKernel(n int) *wfunc.Kernel {
	return firPushing(n, func(sum wfunc.Expr) wfunc.Expr { return sum })
}

// firPushing is firKernel pushing push(sum) instead of the sum.
func firPushing(n int, push func(sum wfunc.Expr) wfunc.Expr) *wfunc.Kernel {
	b := wfunc.NewKernel("fir", n, 1, 1)
	w := b.FieldArray("w", n)
	i := b.Local("i")
	sum := b.Local("sum")
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(push(sum)),
	)
	return b.Build()
}

func firState(k *wfunc.Kernel, n int) *wfunc.State {
	st := k.NewState()
	for i := range st.Arrays[0] {
		st.Arrays[0][i] = 1.0 / float64(n)
	}
	return st
}

const benchTaps = 256

// firings is the block BenchmarkSpanKinds' row kernels fire at once.
const firings = 8

// BenchmarkFIRInterp measures one work-function firing on the
// tree-walking interpreter.
func BenchmarkFIRInterp(b *testing.B) {
	k := firKernel(benchTaps)
	st := firState(k, benchTaps)
	env := wfunc.NewEnv(k.Work)
	env.State = st
	in := wfunc.NewRing(0)
	out := wfunc.NewRing(0)
	for i := 0; i < benchTaps+b.N; i++ {
		in.Push(float64(i % 17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Reset()
		env.In, env.Out = in, out
		if err := wfunc.Exec(k.Work, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIRVM measures the same firing on the bytecode VM.
func BenchmarkFIRVM(b *testing.B) {
	k := firKernel(benchTaps)
	st := firState(k, benchTaps)
	p, err := Compile(k.Work)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(p)
	m.SetState(st)
	in := wfunc.NewRing(0)
	out := wfunc.NewRing(0)
	for i := 0; i < benchTaps+b.N; i++ {
		in.Push(float64(i % 17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(in, out, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanKinds measures each span kind against its own generic loop,
// on the ring every engine runs: the same 64-trip loop fired once with its
// span instruction and once with the instruction turned into a jump to
// the code loop behind it, the one its guard falls back to. ns/trip is
// the number to compare: an FIR's reduce, a firing's drain, a history
// shift's move, a DES-style permute-and-xor map, and the same map storing
// into a local array as a fused kernel's stage does. The generic row has
// no span at all: PhaseUnwrap's loop-carried d = d + sin(d)*1e-9 and a
// compare-and-swap, the register code's own number. The row row is a
// 64-tap FIR's block of 8 firings in ns/tap: RunHeld's lanes, four
// firings at a time, against one RunN per firing; row/scaled is the same
// FIR pushing acc*0.1, as FMRadio's fused bands do. The rows row is one
// firing of a 64×64 apps.MatMul in ns per multiply-add: its rows span, four
// rows at a time, against the program without spans.
func BenchmarkSpanKinds(b *testing.B) {
	const trips = 64
	kinds := []struct {
		name  string
		spans int
		loop  func(v, acc, t *wfunc.LocalRef, fa, la int) []wfunc.Stmt
	}{
		{"reduce", 1, func(v, acc, _ *wfunc.LocalRef, fa, _ int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.Set(acc, wfunc.AddX(acc, wfunc.MulX(wfunc.PeekX(v), wfunc.FIdx(fa, v))))}
		}},
		{"drain", 1, func(_, _, _ *wfunc.LocalRef, _, _ int) []wfunc.Stmt { return []wfunc.Stmt{wfunc.Pop1()} }},
		{"move", 1, func(v, _, _ *wfunc.LocalRef, fa, la int) []wfunc.Stmt {
			return []wfunc.Stmt{wfunc.SetLIdx(la, v, wfunc.FIdx(fa, v))}
		}},
		{"map", 1, func(v, _, _ *wfunc.LocalRef, fa, _ int) []wfunc.Stmt {
			perm := wfunc.Bin(wfunc.Mod, wfunc.MulX(v, wfunc.C(5)), wfunc.C(trips))
			return []wfunc.Stmt{wfunc.Push1(wfunc.Bin(wfunc.BitXor, wfunc.PeekX(perm), wfunc.FIdx(fa, v)))}
		}},
		{"store", 1, func(v, _, _ *wfunc.LocalRef, fa, la int) []wfunc.Stmt {
			perm := wfunc.Bin(wfunc.Mod, wfunc.MulX(v, wfunc.C(5)), wfunc.C(trips))
			return []wfunc.Stmt{wfunc.SetLIdx(la, v, wfunc.Bin(wfunc.BitXor, wfunc.PeekX(perm), wfunc.FIdx(fa, v)))}
		}},
		{"generic", 0, func(v, d, t *wfunc.LocalRef, _, la int) []wfunc.Stmt {
			return []wfunc.Stmt{
				wfunc.Set(d, wfunc.AddX(d, wfunc.MulX(wfunc.Un(wfunc.Sin, d), wfunc.C(1e-9)))),
				wfunc.Set(t, wfunc.LIdx(la, v)),
				wfunc.IfS(wfunc.Bin(wfunc.Gt, t, d),
					wfunc.SetLIdx(la, v, d),
					wfunc.Set(d, t)),
			}
		}},
	}
	for _, kind := range kinds {
		kb := wfunc.NewKernel(kind.name, trips, 0, 0).Dynamic()
		fa, la := kb.FieldArray("fa", trips), kb.LocalArray("la", trips)
		v, acc, t := kb.Local("v"), kb.Local("acc"), kb.Local("t")
		k := kb.WorkBody(&wfunc.For{Var: v.Idx, From: wfunc.C(0), To: wfunc.C(trips), Body: kind.loop(v, acc, t, fa, la)}).Build()
		p, err := Compile(k.Work)
		if err != nil {
			b.Fatal(err)
		}
		if r, d, m, mp, _ := p.SpanCounts(); r+d+m+mp != kind.spans {
			b.Fatalf("%s: reduce/drain/move/map = %d/%d/%d/%d, want %d spans", kind.name, r, d, m, mp, kind.spans)
		}
		batch := make([]float64, trips)
		for i := range batch {
			batch[i] = float64(i % 2)
		}
		runs := []struct {
			mode string
			p    *Program
		}{{"span", p}, {"generic", withoutSpans(p)}}
		if kind.spans == 0 {
			runs = runs[1:]
		}
		for _, run := range runs {
			b.Run(kind.name+"/"+run.mode, func(b *testing.B) {
				p := run.p
				m := NewMachine(p)
				m.SetState(k.NewState())
				in, out := wfunc.NewRing(2*trips), wfunc.NewRing(2*trips)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if in.Len() < trips {
						in.Append(batch)
					}
					if err := m.Run(in, out, nil, nil); err != nil {
						b.Fatal(err)
					}
					out.Advance(out.Len())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trips), "ns/trip")
			})
		}
	}
	for _, row := range []struct {
		name string
		fir  *wfunc.Kernel
	}{
		{"row", firKernel(trips)},
		{"row/scaled", firPushing(trips, func(sum wfunc.Expr) wfunc.Expr { return wfunc.MulX(sum, wfunc.C(0.1)) })},
	} {
		benchRow(b, row.name, row.fir, trips)
	}
	mat := apps.MatMul("matmul", trips, trips, 0.37).Kernel
	p, err := Compile(mat.Work)
	if _, _, _, _, n := p.SpanCounts(); err != nil || n != 1 {
		b.Fatalf("rows: %d rows spans: %v", n, err)
	}
	st := mat.NewState()
	env := wfunc.NewEnv(mat.Init)
	env.State = st
	if err := wfunc.Exec(mat.Init, env); err != nil {
		b.Fatal(err)
	}
	for _, run := range []struct {
		mode string
		p    *Program
	}{{"span", p}, {"generic", withoutSpans(p)}} {
		b.Run("rows/"+run.mode, func(b *testing.B) {
			m := NewMachine(run.p)
			m.SetState(st)
			in, out := wfunc.NewRing(4*trips), wfunc.NewRing(2*trips)
			batch := make([]float64, trips)
			for i := range batch {
				batch[i] = float64(i%5) - 2
			}
			for b.Loop() {
				for in.Len() < mat.Peek {
					in.Append(batch)
				}
				if err := m.Run(in, out, nil, nil); err != nil {
					b.Fatal(err)
				}
				out.Advance(out.Len())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trips*trips), "ns/madd")
		})
	}
}

// benchRow runs row kernel fir's block of firings: RunHeld's lanes against
// one RunN per firing.
func benchRow(b *testing.B, name string, fir *wfunc.Kernel, trips int) {
	p, err := Compile(fir.Work)
	if err != nil || p.row == nil {
		b.Fatalf("%s: the FIR is no row kernel: %v", name, err)
	}
	for _, mode := range []string{"lanes", "generic"} {
		b.Run(name+"/"+mode, func(b *testing.B) {
			m := NewMachine(p)
			m.SetState(firState(fir, trips))
			in, out := wfunc.NewRing(4*trips), wfunc.NewRing(2*firings)
			batch := make([]float64, trips)
			for i := range batch {
				batch[i] = float64(i%5) - 2
			}
			var fired int64
			for b.Loop() {
				for in.Len() < trips+firings {
					in.Append(batch)
				}
				if mode == "lanes" {
					if err := m.RunHeld(in, out, 1, firings, firings, in.Pushed, &fired, nil); err != nil {
						b.Fatal(err)
					}
				} else {
					for range firings {
						if err := m.RunN(in, out, 1, &fired, nil, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				out.Advance(out.Len())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*firings*trips), "ns/tap")
		})
	}
}

// withoutSpans is p with every span instruction replaced by a jump to the
// next instruction: the generic loops alone.
func withoutSpans(p *Program) *Program {
	q := *p
	q.code = slices.Clone(p.code)
	for pc, ins := range q.code {
		if ins.op == opSpan {
			q.code[pc] = instr{op: opJump, k: int32(pc + 1)}
		}
	}
	return &q
}

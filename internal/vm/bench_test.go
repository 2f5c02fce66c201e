package vm

import (
	"slices"
	"testing"

	"streamit/internal/wfunc"
)

// firKernel builds the canonical hot work function — an n-tap FIR
// accumulation loop — for microbenchmarking the execution substrates in
// isolation (no engine, no scheduling, a bare ring).
func firKernel(n int) *wfunc.Kernel {
	b := wfunc.NewKernel("fir", n, 1, 1)
	w := b.FieldArray("w", n)
	i := b.Local("i")
	sum := b.Local("sum")
	b.WorkBody(
		wfunc.Set(sum, wfunc.C(0)),
		wfunc.ForUp(i, wfunc.Ci(0), wfunc.Ci(n),
			wfunc.Set(sum, wfunc.AddX(sum, wfunc.MulX(wfunc.PeekX(i), wfunc.FIdx(w, i))))),
		wfunc.Pop1(),
		wfunc.Push1(sum),
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
// the bytecode loop behind it, the one its guard falls back to. ns/trip is
// the number to compare: an FIR's reduce, a firing's drain, a history
// shift's move and a DES-style permute-and-xor map.
func BenchmarkSpanKinds(b *testing.B) {
	const trips = 64
	kinds := []struct {
		name string
		loop func(v, acc *wfunc.LocalRef, fa, la int) wfunc.Stmt
	}{
		{"reduce", func(v, acc *wfunc.LocalRef, fa, _ int) wfunc.Stmt {
			return wfunc.Set(acc, wfunc.AddX(acc, wfunc.MulX(wfunc.PeekX(v), wfunc.FIdx(fa, v))))
		}},
		{"drain", func(_, _ *wfunc.LocalRef, _, _ int) wfunc.Stmt { return wfunc.Pop1() }},
		{"move", func(v, _ *wfunc.LocalRef, fa, la int) wfunc.Stmt {
			return wfunc.SetLIdx(la, v, wfunc.FIdx(fa, v))
		}},
		{"map", func(v, _ *wfunc.LocalRef, fa, _ int) wfunc.Stmt {
			perm := wfunc.Bin(wfunc.Mod, wfunc.MulX(v, wfunc.C(5)), wfunc.C(trips))
			return wfunc.Push1(wfunc.Bin(wfunc.BitXor, wfunc.PeekX(perm), wfunc.FIdx(fa, v)))
		}},
	}
	for _, kind := range kinds {
		kb := wfunc.NewKernel(kind.name, trips, 0, 0).Dynamic()
		fa, la := kb.FieldArray("fa", trips), kb.LocalArray("la", trips)
		v, acc := kb.Local("v"), kb.Local("acc")
		k := kb.WorkBody(wfunc.ForUp(v, wfunc.Ci(0), wfunc.Ci(trips), kind.loop(v, acc, fa, la))).Build()
		p, err := Compile(k.Work)
		if err != nil {
			b.Fatal(err)
		}
		if r, d, m, mp := p.SpanCounts(); r+d+m+mp != 1 {
			b.Fatalf("%s: reduce/drain/move/map = %d/%d/%d/%d, want one span", kind.name, r, d, m, mp)
		}
		batch := make([]float64, trips)
		for i := range batch {
			batch[i] = float64(i % 2)
		}
		for _, run := range []struct {
			mode string
			p    *Program
		}{{"span", p}, {"generic", withoutSpans(p)}} {
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
}

// withoutSpans is p with every span instruction replaced by a jump to the
// next instruction: the generic loops alone.
func withoutSpans(p *Program) *Program {
	q := *p
	q.code = slices.Clone(p.code)
	for pc, ins := range q.code {
		if ins.op == opSpan {
			q.code[pc] = instr{op: opJump, a: int32(pc + 1)}
		}
	}
	return &q
}

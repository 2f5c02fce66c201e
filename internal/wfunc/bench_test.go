package wfunc

import "testing"

// BenchmarkInterpFIR measures the interpreter's cost per FIR output.
func BenchmarkInterpFIR(b *testing.B) {
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(i)
	}
	n := len(weights)
	kb := NewKernel("FIR", n, 1, 1)
	w := kb.FieldArray("w", n, weights...)
	i := kb.Local("i")
	sum := kb.Local("sum")
	kb.WorkBody(
		Set(sum, C(0)),
		ForUp(i, Ci(0), Ci(n),
			Set(sum, AddX(sum, MulX(PeekX(i), FIdx(w, i))))),
		Pop1(),
		Push1(sum),
	)
	k := kb.Build()
	st := k.NewState()
	in := NewRing(0)
	for j := 0; j < n+4; j++ {
		in.Push(float64(j))
	}
	out := NewRing(0)
	env := NewEnv(k.Work)
	env.State = st
	env.In, env.Out = in, out
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		env.Reset()
		in.Push(float64(j)) // keep the window full
		if err := Exec(k.Work, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateKernel measures the static work estimator.
func BenchmarkEstimateKernel(b *testing.B) {
	kb := NewKernel("est", 32, 1, 1)
	w := kb.FieldArray("w", 32)
	i := kb.Local("i")
	sum := kb.Local("sum")
	kb.WorkBody(
		ForUp(i, Ci(0), Ci(32),
			Set(sum, AddX(sum, MulX(PeekX(i), FIdx(w, i))))),
		Pop1(), Push1(sum),
	)
	k := kb.Build()
	b.ResetTimer()
	for j := 0; j < b.N; j++ {
		EstimateKernel(k)
	}
}

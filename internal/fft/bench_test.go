package fft

import (
	"math/rand"
	"testing"
)

// BenchmarkForward1024 measures the FFT substrate.
func BenchmarkForward1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := Forward(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Package fft provides the fast-Fourier-transform substrate used by the
// linear optimizer's frequency translation (and by the FFT/TDE benchmark
// verifiers): an iterative radix-2 decimation-in-time complex FFT.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be positive).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the in-place radix-2 FFT of x. len(x) must be a power of
// two.
func Forward(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation (the paper's bit-reverse-order filter).
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterfly stages.
	for size := 2; size <= n; size <<= 1 {
		wn := cmplx.Rect(1, -2*math.Pi/float64(size))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wn
			}
		}
	}
	return nil
}

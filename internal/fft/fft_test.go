package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestForwardKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] is [1,1,1,1]; of [1,1,1,1] is [4,0,0,0].
	x := []complex128{1, 0, 0, 0}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if !almostEq(real(v), 1) || !almostEq(imag(v), 0) {
			t.Errorf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	y := []complex128{1, 1, 1, 1}
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	if !almostEq(real(y[0]), 4) {
		t.Errorf("DC FFT[0] = %v, want 4", y[0])
	}
	for i := 1; i < 4; i++ {
		if !almostEq(real(y[i]), 0) || !almostEq(imag(y[i]), 0) {
			t.Errorf("DC FFT[%d] = %v, want 0", i, y[i])
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for non-power-of-two length")
	}
}

// inverse undoes Forward through conjugation: IFFT(x) = conj(FFT(conj(x)))/N.
func inverse(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := Forward(x); err != nil {
		return err
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / complex(float64(len(x)), 0)
	}
	return nil
}

func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (2 + sizeSel%7) // 4..256
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if Forward(x) != nil || inverse(x) != nil {
			return false
		}
		for i := range x {
			if math.Abs(real(x[i])-real(orig[i])) > 1e-9 ||
				math.Abs(imag(x[i])-imag(orig[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-7 {
		t.Errorf("Parseval violated: time %v, freq %v", timeEnergy, freqEnergy)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

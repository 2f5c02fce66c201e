package main

import "time"

// The reference kernel. The box the benchmark runs on shares its host: a
// neighbour on the sibling hardware thread slows everything that computes by
// up to 1.7×, for stretches of half a second to minutes, with no steal time
// to show for it. So wall time alone does not repeat. The harness therefore
// reads a fixed piece of arithmetic, the same on every commit, right before
// and right after every operation it times, and states the operation's
// time at the speed of the reference box: measured × refNominal ÷ the mean
// of the two readings. The median of those scaled times repeats within a
// percent or two where the raw median moves by tens of percent (README.md,
// "Why times are scaled").

// refWords sizes the kernel's buffer: 256 KB of float64, more than the
// first-level cache and well inside the second, like the tapes, the VM
// state and the code of the programs under test. A kernel that lives in
// registers and 2 KB tracks a neighbour on the sibling hardware thread but
// under-reads one that fills the shared caches (a probe of four programs
// against five candidate kernels: the 2 KB one left 3.5–8.6 % between the
// largest and the smallest of sixteen 15 s runs, this one 1.7–3.5 %, a
// pointer chase over 8 MB 8–20 %).
const refWords = 1 << 15

// refRounds sizes one reading: about 2.3 ms, short against the stretches in
// which the host changes speed and long against the clock.
const refRounds = 750

// refNominal is what one reading takes on the reference box when the host
// is quiet, in seconds. It only fixes the unit: a box on which readings take
// this long reports its raw times.
const refNominal = 2.30e-3

var (
	refBuf  = newRefBuf()
	refSink float64
)

func newRefBuf() []float64 {
	buf := make([]float64, refWords)
	for i := range buf {
		buf[i] = float64(i%1000) * 0.001
	}
	return buf
}

// refKernel is a strided dot product of the buffer with a rotation of
// itself, one word per cache line, with a loop-carried update: arithmetic
// fed from the second-level cache. Only the harness's own goroutine ever
// calls it, and under the race detector its three million instrumented
// loads per reading would be most of the smoke test's time.
//
//go:norace
func refKernel() {
	const mask = refWords - 1
	acc := 0.0
	for r := 0; r < refRounds; r++ {
		s := 0.0
		j := r * 7
		for i := 0; i < refWords; i += 8 {
			s += refBuf[i] * refBuf[(i+j)&mask]
		}
		refBuf[r&mask] = s * 1e-6
		acc += s
	}
	refSink = acc
}

// host is the record of the reference kernel's readings.
type host struct {
	last     float64   // the latest reading, seconds
	at       time.Time // when it ended
	readings []float64
}

func (h *host) read() float64 {
	t0 := time.Now()
	refKernel()
	h.at = time.Now()
	h.last = h.at.Sub(t0).Seconds()
	h.readings = append(h.readings, h.last)
	return h.last
}

// bracket runs f between two readings and returns the factor that states a
// duration measured inside f at the reference box's speed. A reading that
// ended within the last 200 µs serves as the opening one, so back-to-back
// brackets share the reading between them.
func (h *host) bracket(f func()) float64 {
	before := h.last
	if before == 0 || time.Since(h.at) > 200*time.Microsecond {
		before = h.read()
	}
	f()
	after := h.read()
	return refNominal / ((before + after) / 2)
}

// slowdown summarizes the readings as multiples of refNominal: how much
// slower than the quiet reference box the host ran.
func (h *host) slowdown() summary {
	return summarize(h.readings).scaled(1 / refNominal)
}

package exec

import (
	"testing"

	"streamit/internal/apps"
	"streamit/internal/wfunc"
)

// BenchmarkEngineFMRadio measures sequential-runtime throughput on the FM
// radio (steady iterations per op).
func BenchmarkEngineFMRadio(b *testing.B) {
	e, err := New(apps.FMRadio(6, 32))
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RunInit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunSteady(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTeleport measures the dynamic (message-constrained)
// scheduler against the static one.
func BenchmarkEngineTeleport(b *testing.B) {
	e, err := New(apps.FreqHoppingRadio(true))
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RunInit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunSteady(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelOps measures the ring buffer.
func BenchmarkChannelOps(b *testing.B) {
	ch := wfunc.NewRing(64)
	for i := 0; i < 32; i++ {
		ch.Push(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Push(float64(i))
		_ = ch.Peek(3)
		ch.Pop()
	}
}

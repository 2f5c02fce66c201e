package dist

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/wfunc"
)

// Checkpoint interchange: the distributed runtime's barrier images use the
// exact same on-disk format as the sequential and mapped engines, so a
// distributed run can resume a single-process checkpoint and vice versa.
// The fixed point is the committed golden image in the exec package: a
// distributed run over the same program must reproduce it byte for byte.

// collectSink mirrors the exec conformance suite's collector: a native
// filter with the sink's input rates that records every popped item.
func collectSink(f *ir.Filter, outs *[]*[]float64) *ir.Filter {
	k := f.Kernel
	peek := k.Peek
	if peek < k.Pop {
		peek = k.Pop
	}
	b := wfunc.NewKernel(k.Name, peek, k.Pop, 0)
	b.Dynamic() // stub body; behaviour is the native closure
	b.WorkBody()
	kc := b.Build()
	kc.Dynamic = false
	kc.Peek, kc.Pop, kc.Push = peek, k.Pop, 0
	got := &[]float64{}
	*outs = append(*outs, got)
	return &ir.Filter{
		Kernel: kc,
		In:     f.In,
		Out:    ir.TypeVoid,
		WorkFn: func(in, out wfunc.Tape, _ *wfunc.State) {
			for i := 0; i < kc.Pop; i++ {
				*got = append(*got, in.Pop())
			}
		},
	}
}

func swapAllSinks(s ir.Stream, outs *[]*[]float64) ir.Stream {
	switch s := s.(type) {
	case *ir.Filter:
		if s.Kernel.Push == 0 && s.Kernel.Pop > 0 && !s.Kernel.Dynamic {
			return collectSink(s, outs)
		}
		return s
	case *ir.Pipeline:
		for i, c := range s.Children {
			s.Children[i] = swapAllSinks(c, outs)
		}
		return s
	case *ir.SplitJoin:
		for i, c := range s.Children {
			s.Children[i] = swapAllSinks(c, outs)
		}
		return s
	case *ir.FeedbackLoop:
		s.Body = swapAllSinks(s.Body, outs)
		if s.Loop != nil {
			s.Loop = swapAllSinks(s.Loop, outs)
		}
		return s
	}
	return s
}

// goldenProgram builds the exact program behind the exec package's golden
// mapped checkpoint: FMRadio(2, 8) with its sink swapped for a collector.
func goldenProgram(outs *[]*[]float64) *ir.Program {
	prog := apps.FMRadio(2, 8)
	prog.Top = swapAllSinks(prog.Top, outs)
	return prog
}

// goldenRegistry lets a coordinator and its shards compile the swapped
// program by name. Every build gets fresh collector buffers.
func goldenRegistry() map[string]func() *ir.Program {
	return map[string]func() *ir.Program{
		"FMRadioCollect": func() *ir.Program {
			var outs []*[]float64
			return goldenProgram(&outs)
		},
	}
}

const goldenPath = "../exec/testdata/mapped_fmradio_taskdata.ckpt"

// goldenConfig matches the golden image's plan: StratCoarseData over 4
// workers (here 2 shards × 2), barrier exactly at iteration 2.
func goldenConfig() Config {
	cfg := testConfig(2)
	cfg.Strategy = partition.StratCoarseData
	cfg.Epoch = 2
	cfg.TapSinks = false
	cfg.Registry = goldenRegistry()
	return cfg
}

func withRegistry(reg map[string]func() *ir.Program) func(*ShardOptions) {
	return func(o *ShardOptions) { o.Registry = reg }
}

// TestDistGoldenImage: a 2-shard distributed run over the golden program
// assembles a final barrier image byte-identical to the committed mapped
// golden checkpoint — the distributed, mapped, and sequential engines all
// speak one image format over one canonical state.
func TestDistGoldenImage(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden checkpoint missing: %v", err)
	}
	cfg := goldenConfig()
	res := runDist(t, Spec{App: "FMRadioCollect"}, cfg, 2, withRegistry(cfg.Registry))
	if res.Iterations != 2 {
		t.Fatalf("committed %d iterations, want 2", res.Iterations)
	}
	if !bytes.Equal(res.FinalImage, golden) {
		t.Fatalf("distributed barrier image (%d bytes) is not byte-identical to the golden mapped checkpoint (%d bytes)",
			len(res.FinalImage), len(golden))
	}
}

// TestDistTapKeepsSinkState: a tap captures a sink's input without
// replacing its work, so a 2-shard run of a program whose sink keeps state
// ends on the same barrier image with TapSinks on as with it off.
func TestDistTapKeepsSinkState(t *testing.T) {
	reg := map[string]func() *ir.Program{"FMRadioAcc": func() *ir.Program {
		b := wfunc.NewKernel("AccSink", 1, 1, 0)
		acc := b.Field("acc", 0)
		b.WorkBody(wfunc.SetF(acc, wfunc.AddX(wfunc.MulX(acc, wfunc.C(0.5)), wfunc.PopE())))
		prog := apps.FMRadio(2, 8)
		pipe := prog.Top.(*ir.Pipeline)
		pipe.Children[len(pipe.Children)-1] = &ir.Filter{Kernel: b.Build(), In: ir.TypeFloat, Out: ir.TypeVoid}
		return prog
	}}
	images := map[bool][]byte{}
	for _, tap := range []bool{false, true} {
		cfg := testConfig(2)
		cfg.TapSinks, cfg.Registry = tap, reg
		res := runDist(t, Spec{App: "FMRadioAcc"}, cfg, 8, withRegistry(reg))
		captured := 0
		for _, stream := range res.Outputs {
			captured += len(stream)
		}
		if (captured > 0) != tap {
			t.Fatalf("TapSinks=%v: captured %d sink items", tap, captured)
		}
		images[tap] = res.FinalImage
	}
	if !bytes.Equal(images[true], images[false]) {
		t.Fatal("tapping the sink changed the final barrier image: the sink's state did not advance")
	}
}

// TestDistImageToSequential: a shard-produced barrier image restores into
// a plain sequential engine, which resumes bit-identically — verified
// against an uninterrupted sequential run of the same program.
func TestDistImageToSequential(t *testing.T) {
	cfg := goldenConfig()
	res := runDist(t, Spec{App: "FMRadioCollect"}, cfg, 2, withRegistry(cfg.Registry))

	// Uninterrupted sequential reference: init + 4 steady iterations.
	var refOuts []*[]float64
	refJP, err := buildJobPlan(goldenProgram(&refOuts), cfg.Strategy, 4)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := exec.NewFromGraphBackend(refJP.g2, refJP.s2, cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := refEng.Run(4); err != nil {
		t.Fatal(err)
	}

	// Resume the distributed image on a fresh sequential engine.
	var resOuts []*[]float64
	resJP, err := buildJobPlan(goldenProgram(&resOuts), cfg.Strategy, 4)
	if err != nil {
		t.Fatal(err)
	}
	resEng, err := exec.NewFromGraphBackend(resJP.g2, resJP.s2, cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := resEng.RestoreCheckpoint(res.FinalImage)
	if err != nil {
		t.Fatalf("sequential engine rejects the distributed image: %v", err)
	}
	if iter != 2 {
		t.Fatalf("image restored at iteration %d, want 2", iter)
	}
	if err := resEng.RunSteady(2); err != nil {
		t.Fatalf("sequential resume from distributed image: %v", err)
	}

	if len(refOuts) != len(resOuts) || len(refOuts) == 0 {
		t.Fatalf("%d reference collectors vs %d resumed", len(refOuts), len(resOuts))
	}
	for i := range refOuts {
		ref, got := *refOuts[i], *resOuts[i]
		if len(got) == 0 || len(got) > len(ref) {
			t.Fatalf("collector %d: resumed run emitted %d items, reference %d", i, len(got), len(ref))
		}
		if !reflect.DeepEqual(got, ref[len(ref)-len(got):]) {
			t.Fatalf("collector %d: sequential resume from the distributed image diverges from the uninterrupted run", i)
		}
	}
}

// TestSequentialImageToDist: the reverse direction — a checkpoint written
// by the sequential engine seeds a distributed run via Config.StartImage,
// and the sharded continuation is bit-identical to continuing the
// sequential engine in place.
func TestSequentialImageToDist(t *testing.T) {
	cfg := goldenConfig()
	cfg.TapSinks = true

	// Sequential run to iteration 2, checkpointed.
	var seqOuts []*[]float64
	jp, err := buildJobPlan(goldenProgram(&seqOuts), cfg.Strategy, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewFromGraphBackend(jp.g2, jp.s2, cfg.Backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2); err != nil {
		t.Fatal(err)
	}
	var img sliceBuffer
	if err := eng.WriteCheckpoint(&img, 2); err != nil {
		t.Fatal(err)
	}

	// Distributed continuation from the sequential image.
	cfg.StartImage = img
	cfg.StartIter = 2
	res := runDist(t, Spec{App: "FMRadioCollect"}, cfg, 6, withRegistry(cfg.Registry))
	if res.Iterations != 6 {
		t.Fatalf("committed %d iterations, want 6", res.Iterations)
	}

	// Sequential continuation in place: 4 more steady iterations; the new
	// items are the reference for what the shards should have produced.
	pre := make([]int, len(seqOuts))
	for i, o := range seqOuts {
		pre[i] = len(*o)
	}
	if err := eng.RunSteady(4); err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(seqOuts) || len(seqOuts) == 0 {
		t.Fatalf("%d distributed sinks vs %d sequential collectors", len(res.Outputs), len(seqOuts))
	}
	for i, o := range seqOuts {
		want := (*o)[pre[i]:]
		var got []float64
		found := false
		for _, stream := range res.Outputs {
			if reflect.DeepEqual(stream, want) {
				found = true
				break
			}
			got = stream
		}
		if !found {
			n := len(got)
			if len(want) < n {
				n = len(want)
			}
			for k := 0; k < n; k++ {
				if got[k] != want[k] {
					t.Fatalf("collector %d: distributed continuation diverges at item %d: %v vs %v",
						i, k, got[k], want[k])
				}
			}
			t.Fatalf("collector %d: distributed continuation emitted %d items, sequential %d",
				i, len(got), len(want))
		}
	}
}

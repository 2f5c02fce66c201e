package exec

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/partition"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

// writeAllocs is what one WriteCheckpoint into w allocates, warmed up.
func writeAllocs(t *testing.T, write func(io.Writer) error, w io.Writer) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		if b, ok := w.(*bytes.Buffer); ok {
			b.Reset()
		}
		if err := write(w); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointWriteAllocations pins the writer's allocation contract on
// both engines: an image streams from the engine's rings and states into a
// warmed bytes.Buffer without an allocation, and into a writer that lends
// no buffer with exactly one, because imageSize, computed before a byte is
// written, is the image's length. The programs cover stateful filters, a
// pending teleport message, cross-worker staging and the SWPS trailer of a
// stage-skewed barrier.
func TestCheckpointWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	check := func(label string, write func(io.Writer) error, size int) {
		var img bytes.Buffer
		if err := write(&img); err != nil {
			t.Fatal(err)
		}
		if img.Len() != size {
			t.Errorf("%s: image of %d bytes, imageSize says %d", label, img.Len(), size)
		}
		if n := writeAllocs(t, write, new(bytes.Buffer)); n != 0 {
			t.Errorf("%s: WriteCheckpoint into a warmed buffer allocates %.0f times, want 0", label, n)
		}
		if n := writeAllocs(t, write, io.Discard); n != 1 {
			t.Errorf("%s: WriteCheckpoint into a writer with no spare buffer allocates %.0f times, want 1", label, n)
		}
	}
	for _, app := range apps.Suite() {
		e := buildEngine(t, app.Build(), BackendVM)
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		if app.Name == "FMRadio" {
			e.pending[1] = append(e.pending[1], &message{handler: "setGain", args: []float64{1.5, -2}, target: 9})
		}
		check("sequential "+app.Name, func(w io.Writer) error { return e.WriteCheckpoint(w, 3) },
			imageSize(e.nodes, e.chans, nil, e.pending, nil))
	}
	for _, strat := range []partition.Strategy{partition.StratCoarseData, partition.StratSWP} {
		me := planMapped(t, apps.FMRadio(4, 16), strat).engine(t, Options{})
		if err := me.Run(5); err != nil {
			t.Fatal(err)
		}
		check("mapped "+string(strat), func(w io.Writer) error { return me.WriteCheckpoint(w, 5) },
			imageSize(me.nodes, me.queues, me.stage, me.swp.pending, nil))
	}
	mb := buildMapped(t, func() *ir.Program { return apps.FMRadio(2, 8) }, partition.StratSWP)
	mb.assign = alternateAssign(t, mb.g2, mb.workers)
	img, skewed := skewedCheckpoint(t, mb, 16, 11)
	if !bytes.Contains(img, []byte(swpMagic)) || stagingResidue(skewed) == 0 {
		t.Fatal("the skewed barrier has no stage trailer or no staging residue to cover")
	}
	check("mapped skewed", func(w io.Writer) error { return skewed.WriteCheckpoint(w, 0) },
		imageSize(skewed.nodes, skewed.queues, skewed.stage, skewed.swp.pending, &ckptSWP{levels: skewed.swp.levels}))
}

// chainProgram is a source and n peeking filters in a pipeline, so each of
// its n+1 edges buffers items at an iteration boundary.
func chainProgram(n int) *ir.Program {
	stages := []ir.Stream{rampFilter("src")}
	for i := 0; i < n; i++ {
		name := letter("f", i)
		stages = append(stages, &ir.Filter{Kernel: wfuncKernel(name, 3, 1, 1, 0.5), In: ir.TypeFloat, Out: ir.TypeFloat})
	}
	return &ir.Program{Name: "chain", Top: ir.Pipe("main", append(stages, nullSink("snk", 1))...)}
}

// TestRestoreAllocationsFlatInEdges: a restore decodes every edge's items
// straight into its ring, so what RestoreCheckpoint allocates does not grow
// with the number of edges.
func TestRestoreAllocationsFlatInEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(n int) float64 {
		prog := chainProgram(n)
		src := buildEngine(t, prog, BackendVM)
		if err := src.Run(3); err != nil {
			t.Fatal(err)
		}
		img := checkpointBytes(t, src, 3)
		dst := buildEngine(t, prog, BackendVM)
		return testing.AllocsPerRun(10, func() {
			if _, err := dst.RestoreCheckpoint(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(3), allocs(60); many != few {
		t.Errorf("a restore allocates %.0f times over 4 edges and %.0f over 61: it grows with the edge count", few, many)
	}
}

// shiftedImages re-encodes e's image once per offset k in [1, slots), every
// edge's positions moved on by k, so that on restore its items start k
// slots further on in their ring and, for some k, run across the end of its
// storage.
func shiftedImages(tb testing.TB, e *Engine, iteration int64, slots int) [][]byte {
	tb.Helper()
	var imgs [][]byte
	for k := 1; k < slots; k++ {
		rings := make([]*wfunc.Ring, len(e.chans))
		for i, ch := range e.chans {
			a, b := ch.Stretches()
			rings[i] = wfunc.NewRing(0)
			rings[i].Fill(ch.Popped+int64(k), append(slices.Clone(a), b...))
		}
		imgs = append(imgs, appendImage(nil, e.fp, iteration, e.Firings, e.nodes, rings, nil, e.pending, nil))
	}
	return imgs
}

// imageEdges decodes the edge section of a valid image into a slice per
// edge, the form Fill takes: the reference the in-place decode is checked
// against.
func imageEdges(tb testing.TB, data []byte, fp uint64, nodes []*nodeRT) (popped []int64, items [][]float64) {
	tb.Helper()
	// Shared states are compared, never written: the engine keeps its own.
	img, err := readImage(new(ckptImage), data, fp, len(nodes), func(i int) (string, *wfunc.State, bool) {
		return nodes[i].node.Name, nodes[i].state, nodes[i].state != nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, ie := range img.edges {
		vs := make([]float64, len(ie.raw)/8)
		wire.DecodeF64s(vs, ie.raw)
		popped, items = append(popped, ie.popped), append(items, vs)
	}
	return popped, items
}

// sameRing fails unless got and want hold the same items at the same
// positions in the same slots of storage of the same size.
func sameRing(t *testing.T, label string, got, want *wfunc.Ring) {
	t.Helper()
	gb, gbase, _, gn := got.Window()
	wb, wbase, _, wn := want.Window()
	if got.Pushed != want.Pushed || got.Popped != want.Popped || gbase != wbase || gn != wn || !slices.Equal(gb, wb) {
		t.Fatalf("%s: ring at %d..%d base %d over %d slots, want %d..%d base %d over %d slots (contents equal: %v)",
			label, got.Popped, got.Pushed, gbase, len(gb), want.Popped, want.Pushed, wbase, len(wb), slices.Equal(gb, wb))
	}
}

// TestRestoreAcrossRingWrap: a sequential restore decodes each edge's
// items into its ring's slots; where they run across the end of the
// ring's storage, the result must be the ring that decoding into a slice
// and Fill leave, at every offset, and re-encode to the image it came from.
func TestRestoreAcrossRingWrap(t *testing.T) {
	for _, prog := range []func() *ir.Program{func() *ir.Program { return chainProgram(3) }, func() *ir.Program { return apps.FMRadio(2, 8) }} {
		src := buildEngine(t, prog(), BackendVM)
		if err := src.Run(2); err != nil {
			t.Fatal(err)
		}
		fresh := buildEngine(t, prog(), BackendVM)
		most := 0
		for _, ch := range fresh.chans {
			most = max(most, slots(ch))
		}
		wrapped := 0
		for k, img := range shiftedImages(t, src, 2, most+1) {
			got, want := buildEngine(t, prog(), BackendVM), buildEngine(t, prog(), BackendVM)
			if _, err := got.RestoreCheckpoint(img); err != nil {
				t.Fatalf("offset %d: %v", k+1, err)
			}
			popped, items := imageEdges(t, img, want.fp, want.nodes)
			for i, ch := range got.chans {
				want.chans[i].Fill(popped[i], items[i])
				sameRing(t, src.G.Edges[i].String(), ch, want.chans[i])
				if a, b := ch.Stretches(); len(a) > 0 && len(b) > 0 {
					wrapped++
				}
			}
			if again := checkpointBytes(t, got, 2); !bytes.Equal(again, img) {
				t.Fatalf("offset %d: the restored engine re-encodes to a different image", k+1)
			}
		}
		if wrapped == 0 {
			t.Fatalf("%s: no restore ran across a ring's end", src.G.Nodes[0].Name)
		}
	}
}

// TestMappedRestoreAcrossRingWrap: the mapped engine decodes each edge's
// items into its reused gather storage and places them from there; over
// images one iteration apart on a chain whose edges move one item per
// iteration, each ring's items start at every slot in turn, and every
// restore must leave the rings that decoding into a slice and Fill leave
// and re-encode to its image.
func TestMappedRestoreAcrossRingWrap(t *testing.T) {
	g, err := ir.Flatten(chainProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewFromGraphBackend(g, s, BackendVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunInit(); err != nil {
		t.Fatal(err)
	}
	me, err := NewMappedOpts(g, s, alternateAssign(t, g, 2), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*wfunc.Ring, len(g.Edges))
	for i := range refs {
		refs[i] = wfunc.NewRing(0)
	}
	wrapped := 0
	for it := int64(0); it < 16; it++ {
		img := checkpointBytes(t, seq, it)
		if _, err := me.RestoreCheckpoint(img); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		popped, items := imageEdges(t, img, me.fp, me.nodes)
		for _, e := range g.Edges {
			refs[e.ID].Fill(popped[e.ID], items[e.ID])
			sameRing(t, e.String(), me.queues[e.ID], refs[e.ID])
			if a, b := me.queues[e.ID].Stretches(); len(a) > 0 && len(b) > 0 {
				wrapped++
			}
		}
		if again := mappedCkptBytes(t, me, it); !bytes.Equal(again, img) {
			t.Fatalf("iteration %d: the restored engine re-encodes to a different image", it)
		}
		if err := seq.RunSteady(1); err != nil {
			t.Fatal(err)
		}
	}
	if wrapped == 0 {
		t.Fatal("no restore ran across a ring's end")
	}
}

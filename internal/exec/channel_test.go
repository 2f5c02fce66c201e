package exec

import (
	"slices"
	"testing"
)

// ringModel is what a ring should hold: its buffered items in order, and
// the position of the first.
type ringModel struct {
	items  []float64
	popped int64
}

// check holds ring c to model m: counters, content through every reader
// (stretches, Peek, Window), and a power-of-two buffer that fits it.
func (m *ringModel) check(t *testing.T, step int, c *channel) {
	t.Helper()
	if c.popped != m.popped || c.pushed != m.popped+int64(len(m.items)) {
		t.Fatalf("step %d: ring at %d..%d, model at %d..%d", step, c.popped, c.pushed, m.popped, m.popped+int64(len(m.items)))
	}
	if n := len(c.buf); n < c.Len() || n&(n-1) != 0 || c.mask != n-1 {
		t.Fatalf("step %d: %d slots (mask %d) for %d items", step, n, c.mask, c.Len())
	}
	a, b := c.stretches()
	if got := append(slices.Clone(a), b...); !slices.Equal(got, m.items) {
		t.Fatalf("step %d: ring holds %v, model %v", step, got, m.items)
	}
	buf, base, mask, n := c.Window()
	for i := 0; i < n; i++ {
		if buf[(base+i)&mask] != m.items[i] || c.Peek(i) != m.items[i] {
			t.Fatalf("step %d: window or peek item %d differs from the model's %v", step, i, m.items[i])
		}
	}
}

// TestRingMatchesSliceModel drives two rings through seeded random
// operations — pushes, pops, batch appends and takes, window advances,
// refills at arbitrary positions, and firings under a save point that
// commit or rewind — across wrap-around and growth, and holds both to a
// slice model after every step. A firing pops its in ring and pushes (and
// may grow) its out ring, as a filter firing does; its rewind puts both
// back exactly.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := newRand(7)
	next := 0.0
	fresh := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			next++
			out[i] = next
		}
		return out
	}
	rings := [2]*channel{newChannel(0), newChannel(0)}
	models := [2]*ringModel{{}, {}}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(2)
		c, m := rings[i], models[i]
		switch op := rng.Intn(8); {
		case op == 0:
			v := fresh(1)[0]
			c.Push(v)
			m.items = append(m.items, v)
		case op == 1 && len(m.items) > 0:
			if v := c.Pop(); v != m.items[0] {
				t.Fatalf("step %d: pop %v, model %v", step, v, m.items[0])
			}
			m.items, m.popped = m.items[1:], m.popped+1
		case op == 2:
			batch := fresh(rng.Intn(24))
			c.Append(batch)
			m.items = append(m.items, batch...)
		case op == 3:
			k := rng.Intn(len(m.items) + 1)
			if got := c.Take(make([]float64, rng.Intn(4)), k); !slices.Equal(got, m.items[:k]) {
				t.Fatalf("step %d: take %v, model %v", step, got, m.items[:k])
			}
			m.items, m.popped = m.items[k:], m.popped+int64(k)
		case op == 4:
			k := rng.Intn(len(m.items) + 1)
			c.Advance(k)
			m.items, m.popped = m.items[k:], m.popped+int64(k)
		case op == 5 && rng.Intn(8) == 0:
			at := rng.Int63n(1 << 40)
			items := fresh(rng.Intn(40))
			c.fill(at, items)
			m.items, m.popped = items, at
		case op >= 6:
			in, out := rings[i], rings[1-i]
			mIn, mOut := models[i], models[1-i]
			rt := &nodeRT{in: in, out: out}
			restore := (&core{}).savePoint(rt, nil)
			pops := rng.Intn(len(mIn.items) + 1)
			for k := 0; k < pops; k++ {
				in.Pop()
			}
			pushed := fresh(rng.Intn(40))
			for _, v := range pushed {
				out.Push(v)
			}
			if op == 6 {
				restore()
			} else {
				mIn.items, mIn.popped = mIn.items[pops:], mIn.popped+int64(pops)
				mOut.items = append(mOut.items, pushed...)
			}
		}
		for k := range rings {
			models[k].check(t, step, rings[k])
		}
		if len(models[0].items)+len(models[1].items) > 4000 {
			// Keep the rings from growing without bound: drain one.
			j := rng.Intn(2)
			rings[j].Advance(rings[j].Len())
			models[j].popped += int64(len(models[j].items))
			models[j].items = nil
		}
	}
}

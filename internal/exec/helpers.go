package exec

import (
	"streamit/internal/ir"
	"streamit/internal/wfunc"
)

// SliceSource returns a filter that emits the given data cyclically, one
// item per firing. It is the standard test/example input driver (the
// paper's ReadFromAtoD / file-input filter).
func SliceSource(name string, data []float64) *ir.Filter {
	pos := 0
	return &ir.Filter{
		Kernel: wfunc.NewKernel(name, 0, 0, 1).WorkBody(wfunc.Push1(wfunc.C(0))).Build(), // placeholder body; native fn used
		In:     ir.TypeVoid,
		Out:    ir.TypeFloat,
		WorkFn: func(in, out wfunc.Tape, state *wfunc.State) {
			out.Push(data[pos%len(data)])
			pos++
		},
	}
}

// SliceSink returns a filter that appends every consumed item to a slice,
// plus a pointer to that slice for inspection after execution (the paper's
// AudioBackEnd / file-output filter).
func SliceSink(name string) (*ir.Filter, *[]float64) {
	collected := &[]float64{}
	return &ir.Filter{
		Kernel: wfunc.NewKernel(name, 1, 1, 0).WorkBody(wfunc.Pop1()).Build(),
		In:     ir.TypeFloat,
		Out:    ir.TypeVoid,
		WorkFn: func(in, out wfunc.Tape, state *wfunc.State) {
			*collected = append(*collected, in.Pop())
		},
	}, collected
}

// RunCollect is a convenience that builds an engine for prog, runs init
// plus iters steady iterations, and returns the items collected by sink
// (which must have been created with SliceSink and placed in prog).
func RunCollect(prog *ir.Program, iters int, sink *[]float64) ([]float64, error) {
	e, err := New(prog)
	if err != nil {
		return nil, err
	}
	if err := e.Run(iters); err != nil {
		return nil, err
	}
	return *sink, nil
}

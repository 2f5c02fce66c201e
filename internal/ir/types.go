// Package ir defines the StreamIt stream graph intermediate representation:
// the hierarchical structures the programmer composes (filters, pipelines,
// split-joins, feedback loops), and the flat node/edge graph the compiler
// and runtime operate on.
//
// Every stream has a single input and a single output, so structures
// compose recursively — this is the central language design decision of the
// paper (§3): most of the expressiveness of a general dataflow graph while
// keeping a block-level abstraction the compiler can schedule.
package ir

import (
	"fmt"

	"streamit/internal/wfunc"
)

// Stream is a node of the hierarchical stream graph: a Filter, Pipeline,
// SplitJoin, or FeedbackLoop.
type Stream interface {
	StreamName() string
	isStream()
}

// Type names for stream items. All types lower onto float64 tapes; the
// names exist for connection checking (appendix restriction 2).
const (
	TypeVoid  = "void"
	TypeInt   = "int"
	TypeFloat = "float"
	TypeBit   = "bit"
)

// Filter is the basic unit of computation: single input, single output,
// with behaviour defined by a wfunc Kernel. A Filter value may appear at
// most once in a stream graph (appendix restriction 3).
type Filter struct {
	Kernel  *wfunc.Kernel
	In, Out string // item types; TypeVoid for sources/sinks

	// WorkFn, if set, replaces the kernel's IL work function with native Go
	// code. Native filters execute faster but are opaque to linear
	// analysis; the kernel still declares rates, and its IL (if any) is
	// used for work estimation.
	WorkFn func(in, out wfunc.Tape, state *wfunc.State)
}

// StreamName implements Stream.
func (f *Filter) StreamName() string { return f.Kernel.Name }
func (*Filter) isStream()            {}

// Pipeline composes children in sequence: the output of child i feeds the
// input of child i+1.
type Pipeline struct {
	Name     string
	Children []Stream
}

// StreamName implements Stream.
func (p *Pipeline) StreamName() string { return p.Name }
func (*Pipeline) isStream()            {}

// Add appends a child and returns p for chaining.
func (p *Pipeline) Add(children ...Stream) *Pipeline {
	p.Children = append(p.Children, children...)
	return p
}

// SJKind enumerates splitter/joiner behaviours.
type SJKind int

// Splitter and joiner kinds. Null splitters deliver no items to children
// (for source-only children); weighted round-robin covers plain round-robin
// with equal weights; duplicate delivers every item to every child (only
// valid for splitters).
const (
	SJNull SJKind = iota
	SJRoundRobin
	SJDuplicate
)

func (k SJKind) String() string {
	switch k {
	case SJNull:
		return "null"
	case SJRoundRobin:
		return "roundrobin"
	case SJDuplicate:
		return "duplicate"
	}
	return "sjkind?"
}

// SJSpec configures a splitter or joiner.
type SJSpec struct {
	Kind    SJKind
	Weights []int // per-child weights for round-robin; ignored otherwise
}

// RoundRobin returns a weighted round-robin spec. With no arguments the
// weights default to 1 per child at flatten time.
func RoundRobin(weights ...int) SJSpec {
	return SJSpec{Kind: SJRoundRobin, Weights: weights}
}

// Duplicate returns a duplicating-splitter spec.
func Duplicate() SJSpec { return SJSpec{Kind: SJDuplicate} }

// Null returns a null splitter/joiner spec.
func Null() SJSpec { return SJSpec{Kind: SJNull} }

// SplitJoin runs children in parallel between a splitter and a joiner.
type SplitJoin struct {
	Name     string
	Split    SJSpec
	Children []Stream
	Join     SJSpec
}

// StreamName implements Stream.
func (s *SplitJoin) StreamName() string { return s.Name }
func (*SplitJoin) isStream()            {}

// Add appends a parallel child and returns s for chaining.
func (s *SplitJoin) Add(children ...Stream) *SplitJoin {
	s.Children = append(s.Children, children...)
	return s
}

// FeedbackLoop creates a cycle: input joins with the loop stream's output
// at the joiner, flows through the body to the splitter; one splitter
// branch is the loop's output, the other feeds back through the loop
// stream to the joiner. Delay items produced by InitPath pre-populate the
// feedback channel (the paper's initPath/setDelay).
type FeedbackLoop struct {
	Name     string
	Join     SJSpec
	Body     Stream
	Split    SJSpec
	Loop     Stream // nil means the feedback path is a plain channel
	Delay    int
	InitPath func(i int) float64 // nil means zeros
}

// StreamName implements Stream.
func (f *FeedbackLoop) StreamName() string { return f.Name }
func (*FeedbackLoop) isStream()            {}

// Portal names a teleport-messaging broadcast target: messages sent to the
// portal are delivered to every registered receiver filter, at a time
// governed by the information-wavefront semantics.
type Portal struct {
	ID        int
	Name      string
	Receivers []*Filter
}

// Register adds a receiver filter to the portal.
func (p *Portal) Register(f *Filter) { p.Receivers = append(p.Receivers, f) }

// LatencyConstraint is the MAX_LATENCY(A, B, n) directive: at any time, A
// may progress at most to the information wavefront that B will see after n
// further invocations of B's work function. It is treated as a message from
// B to upstream A with latency n.
type LatencyConstraint struct {
	Upstream   *Filter // A
	Downstream *Filter // B
	Latency    int
}

// Program bundles a top-level stream with its messaging declarations.
type Program struct {
	Name        string
	Top         Stream
	Portals     []*Portal
	Constraints []LatencyConstraint
	// Named maps "as"-declared instance names to their filters (filled by
	// the language front end; optional for builder-API programs).
	Named map[string]*Filter
}

// NewPortal allocates the program's next portal.
func (p *Program) NewPortal(name string) *Portal {
	pt := &Portal{ID: len(p.Portals), Name: name}
	p.Portals = append(p.Portals, pt)
	return pt
}

// Pipe is a convenience constructor for pipelines.
func Pipe(name string, children ...Stream) *Pipeline {
	return &Pipeline{Name: name, Children: children}
}

// SJ is a convenience constructor for split-joins.
func SJ(name string, split SJSpec, join SJSpec, children ...Stream) *SplitJoin {
	return &SplitJoin{Name: name, Split: split, Join: join, Children: children}
}

// Identity returns a fresh identity filter of the given type, as provided
// by the language's IDENTITY() built-in.
func Identity(typ string) *Filter {
	b := wfunc.NewKernel("Identity", 1, 1, 1)
	b.WorkBody(wfunc.Push1(wfunc.PopE()))
	return &Filter{Kernel: b.Build(), In: typ, Out: typ}
}

// String renders the hierarchical structure for diagnostics.
func String(s Stream) string {
	return render(s, "")
}

func render(s Stream, indent string) string {
	switch s := s.(type) {
	case *Filter:
		state := ""
		if wfunc.WritesFields(s.Kernel.Work) {
			state = " [stateful]"
		}
		return fmt.Sprintf("%sfilter %s (peek=%d pop=%d push=%d)%s\n",
			indent, s.Kernel.Name, s.Kernel.Peek, s.Kernel.Pop, s.Kernel.Push, state)
	case *Pipeline:
		out := fmt.Sprintf("%spipeline %s {\n", indent, s.Name)
		for _, c := range s.Children {
			out += render(c, indent+"  ")
		}
		return out + indent + "}\n"
	case *SplitJoin:
		out := fmt.Sprintf("%ssplitjoin %s split=%v%v join=%v%v {\n",
			indent, s.Name, s.Split.Kind, s.Split.Weights, s.Join.Kind, s.Join.Weights)
		for _, c := range s.Children {
			out += render(c, indent+"  ")
		}
		return out + indent + "}\n"
	case *FeedbackLoop:
		out := fmt.Sprintf("%sfeedbackloop %s delay=%d {\n", indent, s.Name, s.Delay)
		out += indent + " body:\n" + render(s.Body, indent+"  ")
		if s.Loop != nil {
			out += indent + " loop:\n" + render(s.Loop, indent+"  ")
		}
		return out + indent + "}\n"
	}
	return indent + "?\n"
}

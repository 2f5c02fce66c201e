// Linear optimization demo (E7): a chain of FIR filters and rate
// converters is analyzed and collapsed into a single matrix filter. Both
// versions run on the same backend (the bytecode VM); the measured speedup
// is algorithmic.
package main

import (
	"fmt"
	"log"
	"time"

	"streamit/internal/apps"
	"streamit/internal/core"
	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/linear"
)

func buildChain() *ir.Program {
	return &ir.Program{Name: "chain", Top: ir.Pipe("chain",
		apps.Source("in"),
		apps.Upsample("up2", 2),
		apps.FIR("interp", 64, 0.21),
		apps.Downsample("down2", 2),
		apps.FIR("post", 32, 0.4),
		apps.Sink("out", 1),
	)}
}

func measure(prog *ir.Program) float64 {
	e, err := exec.New(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.RunInit(); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	iters := 0
	for time.Since(start) < 300*time.Millisecond {
		if err := e.RunSteady(256); err != nil {
			log.Fatal(err)
		}
		iters += 256
	}
	return float64(iters) / time.Since(start).Seconds()
}

func main() {
	// Analysis: which filters are linear?
	prog := buildChain()
	fmt.Println("linear analysis of the rate-converter chain:")
	for name, rep := range linear.Analyze(prog.Top) {
		fmt.Printf("  %-10s peek=%-3d pop=%-2d push=%-2d nonzeros=%d\n",
			name, rep.Peek, rep.Pop, rep.Push, rep.NonZeros())
	}

	base := measure(buildChain())

	opt := linear.Options{Combine: true}
	c, err := core.Compile(buildChain(), core.Options{Linear: &opt})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer: %d linear filters, %d combined away, %d matrix kernels\n",
		c.Linear.LinearFilters, c.Linear.Combined, c.Linear.MatrixReplaced)

	optRate := measure(c.Program)
	fmt.Printf("\nthroughput (steady iterations/sec):\n")
	fmt.Printf("  original:  %10.0f\n", base)
	fmt.Printf("  optimized: %10.0f\n", optRate)
	fmt.Printf("  speedup:   %9.2fx\n", optRate/base)
}

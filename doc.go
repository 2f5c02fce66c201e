// Package streamit is a from-scratch Go implementation of the StreamIt
// language and compiler ("Language and Compiler Design for Streaming
// Applications", Thies et al., IPPS 2004) and the systems it is evaluated
// on.
//
// The library is organized as one package per subsystem:
//
//   - internal/ir       — the stream graph: filters, pipelines, split-joins,
//     feedback loops, and the flattened node/edge graph
//   - internal/wfunc    — the work-function IL, interpreter, and work
//     estimator
//   - internal/lang     — the textual .str front end (lexer, parser,
//     elaborator)
//   - internal/sched    — SDF balance equations, init/steady schedules,
//     buffer bounds, deadlock detection
//   - internal/sdep     — information-wavefront (sdep) transfer functions,
//     closed-form and simulation-based
//   - internal/exec     — the sequential runtime with teleport messaging
//   - internal/linear   — linear extraction and combination
//   - internal/fuse     — executable filter fusion
//   - internal/machine  — the simulated 16-tile Raw-like multicore
//   - internal/partition — fusion, fission, and the mapping strategies of
//     the paper's evaluation
//   - internal/apps     — the benchmark suite
//   - internal/bench    — the harness regenerating every table and figure
//   - internal/core     — the compiler driver tying it all together
//
// The compiler driver, internal/core, is the entry point; the binaries and
// examples import it and the subsystem packages directly. The root package
// holds this overview and the test that keeps every exported name under
// internal/ called by something that ships (surface_test.go).
//
// Executables: cmd/streamitc (compile and analyze .str programs),
// cmd/streamit-run (execute them), and cmd/streamit-bench (regenerate the
// paper's evaluation); go run ./benchmark measures the native runtimes.
// Runnable examples live under examples/.
package streamit

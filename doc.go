// Package yewpar is a Go reproduction of "YewPar: Skeletons for Exact
// Combinatorial Search" (Archibald, Maier, Stewart, Trinder; PPoPP
// 2020): a general-purpose library of parallel algorithmic skeletons
// for exact combinatorial search.
//
// The implementation lives under internal/: the skeleton library in
// internal/core, the executable operational semantics in
// internal/semantics, the seven search applications of the paper's
// evaluation in internal/apps, and the substrates (bitsets, graphs,
// instances) beside them. Executables are in cmd/ and runnable
// examples in examples/. This root package exists to host the
// repository-level integration tests and the benchmarks and gates of
// bench_test.go; the paper's tables and figure are cmd/experiments.
package yewpar

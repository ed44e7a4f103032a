// Package analysis is the F-DETA domain linter: a self-contained static
// analysis driver (stdlib only — go/parser, go/ast, go/types) that loads the
// whole module and runs a suite of analyzers enforcing invariants no generic
// tool checks.
//
// The invariants are the ones the reproduction's correctness rests on:
//
//   - determinism: evaluation packages never read wall clocks or the global
//     math/rand source, and never emit output in map-iteration order —
//     Tables II/III are regression-tested byte-identical from a seed.
//   - metricnames: every obs instrument name is a package-level constant in
//     the fdeta_* namespace, unique across the module.
//   - floatcmp: no ==/!= on floating-point operands outside approved
//     epsilon helpers (the NaN idiom x != x is allowed).
//   - goroutines: every go statement in the AMI head-end and evaluation
//     worker pool is tied to a sync.WaitGroup-style tracker — the exact
//     leak class PR 4 fixed by hand.
//   - wrapcheck: errors crossing the internal/ami wire boundary are typed
//     or %w-wrapped, never stringly matched.
//   - lockhold, chanbound, blockctx: no blocking work under a mutex,
//     explicit channel capacities, and a way out of every exported
//     blocking call in ami, serve and obs (call-summary engine).
//   - deadapi: every exported identifier declared in internal/ is referred
//     to by some non-test file of the module outside its own declaration;
//     code only tests use lives in the test files.
//
// Findings carry exact positions and can be suppressed in place with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// either trailing on the flagged line or on the line immediately above it.
// The reason is mandatory; a bare directive is itself a finding. The
// cmd/fdetalint driver prints findings plus a one-line per-analyzer summary
// and exits non-zero on any unsuppressed finding; its -suppressions mode
// audits every directive in the tree. DESIGN.md §10 documents each
// invariant and the suppression policy.
package analysis

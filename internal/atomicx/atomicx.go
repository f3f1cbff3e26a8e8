// Package atomicx names the memory-ordering decisions on the SALSA hot
// paths. Go's memory model exposes exactly one flavour of atomic — every
// sync/atomic operation is sequentially consistent — so a reader of the
// produce/consume/steal code cannot tell which of those fences the
// correctness argument actually *needs* and which are incidental. This
// package splits the vocabulary:
//
//   - LoadAcq* / StoreRel* — the operation needs (at least) acquire/release
//     ordering: it publishes or consumes data across threads, and the
//     protocol argument in DESIGN.md §12 cites it. Always sync/atomic, in
//     every build.
//
//   - StoreSC* — the operation needs full sequential consistency: it is one
//     side of a store-load (Dekker-style) handshake where both threads must
//     observe a single total order. The take-announce (node.idx.Store)
//     against the thief's post-CAS re-read is the canonical instance.
//     Always sync/atomic, in every build.
//
//   - RlxI64 / RlxI32 (types, not functions) — the word needs single-copy
//     atomicity (no torn values) but no ordering against surrounding
//     operations: locality metadata (chunk home), monotonic statistics
//     counters. In the default build these are aliases of the sync/atomic
//     types; under the `salsa_relaxed` build tag (and only without the race
//     detector) they are plain-word types whose accessors compile to plain
//     loads and stores, so the cost of promoting "relaxed would do" to
//     "seq-cst is all Go has" is directly measurable:
//
//     go test -tags salsa_relaxed -run '^$' -bench BenchmarkFig14a .
//
// salsa_relaxed is a MEASUREMENT substrate, not a production mode: plain
// 64-bit accesses are not atomic on 32-bit targets, and the race detector
// (rightly) flags the plain accesses, so `-tags salsa_relaxed -race` keeps
// the strict implementation — CI's relaxed job runs both build modes.
//
// Why the relaxed tier is types while the required tier is functions: the
// pool's hot paths are generic, and the compiler does not inline cross-
// package calls into imported generic instantiations (only non-generic
// sync/atomic *methods* get intrinsified there). A LoadRlx(&x) helper would
// therefore cost a real CALL per access on exactly the paths this package
// exists to keep cheap, whereas `x.Load()` on an aliased atomic type costs
// nothing. For the same reason the LoadAcq*/StoreSC* helpers below are used
// on cold paths (steal, recycle) where the naming is worth a call, while
// hot sites (takeTask, insert, drainRun) keep direct method calls annotated
// with `// ordering:` comments that cite this vocabulary. The measured cost
// of ignoring this rule — ~8 ns/op on the owner fast path — is recorded in
// DESIGN.md §12, alongside the ablation deltas and the per-site ordering
// table.
package atomicx

import "sync/atomic"

// Relaxed reports whether this build uses plain memory operations for the
// Rlx accessors (true only under `salsa_relaxed` without `-race`).
const Relaxed = relaxed

// ---- Required orderings: identical in every build. ----

// LoadAcqU64 is an acquire load of an atomic uint64 (e.g. a chunk's tagged
// owner word: the ownership checks before and after the take-announce).
func LoadAcqU64(a *atomic.Uint64) uint64 { return a.Load() }

// LoadAcqI64 is an acquire load of an atomic int64 (e.g. a node's announced
// index, read by thieves after winning the ownership CAS).
func LoadAcqI64(a *atomic.Int64) int64 { return a.Load() }

// StoreSCI64 is a sequentially consistent store of an atomic int64. The
// take-announce (node.idx) uses it: the announce store and the subsequent
// owner-word re-load form a store-load handshake with the thief's
// owner-CAS / index re-read, and both sides must agree on a total order.
func StoreSCI64(a *atomic.Int64, v int64) { a.Store(v) }

// LoadAcqPtr is an acquire load of an atomic pointer (e.g. a task slot:
// observing a task must also observe the node that published its chunk).
func LoadAcqPtr[T any](a *atomic.Pointer[T]) *T { return a.Load() }

// StoreRelPtr is a release store of an atomic pointer (e.g. publishing a
// task into a slot, or marking it TAKEN: the store must order after the
// writes it publishes, and Go's seq-cst atomic store satisfies release).
func StoreRelPtr[T any](a *atomic.Pointer[T], v *T) { a.Store(v) }

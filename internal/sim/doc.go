// Package sim provides a deterministic discrete-event simulation engine —
// the foundation layer of the AHL reproduction stack.
//
// Role in the AHL design: the paper evaluates a TEE-assisted sharded
// blockchain on a 100-server cluster and a 1,400-node GCP testbed. This
// repository replaces that hardware with a simulated clock so the same
// protocols, at the same scales, run reproducibly on one machine. Every
// layer above — the simulated network (internal/simnet), the enclave cost
// model (internal/tee), the consensus protocols (internal/consensus/...),
// the sharded system (internal/core) and the experiment harness
// (internal/bench) — advances time exclusively through an Engine.
//
// Everything in this repository — network delivery, node CPUs, enclave
// operation costs, protocol timers — runs on a single virtual clock owned
// by an Engine. Events are executed in (time, insertion-sequence) order, so
// a run is a pure function of its seed and inputs: two runs with the same
// seed produce identical traces, which makes the large-scale experiments in
// internal/bench reproducible bit for bit.
//
// The engine is intentionally single-threaded. Protocol code runs inside
// event callbacks and must not block; anything that takes (virtual) time is
// expressed by scheduling a follow-up event. Distinct Engine instances
// share no state, so independent simulations may run on separate goroutines
// concurrently (the parallel experiment runner in internal/bench does).
//
// Determinism invariants. Code that runs under an Engine (this package
// and every deterministic package listed in internal/analysis) must obey
// two rules beyond "advance time only through the Engine": never iterate
// a map where the order can reach an observable output (schedule an
// event, send a message, build a digest, render a report) without
// sorting or proving the body order-insensitive, and never consult the
// wall clock or the global math/rand source — randomness comes from
// seeded *rand.Rand instances derived from the engine or topology seed.
// The dynamic harnesses (byte-identical replay, the exact smoke-table
// gate) sample these invariants at runtime; the ahlvet
// analyzer suite (internal/analysis, cmd/ahlvet) enforces them at build
// time, with //ahl:nondeterministic <reason> as the reviewed escape
// hatch for the few constitutively wall-clock boundaries (the live-mode
// bridge in internal/core).
//
// The event queue is an inlined index-based 4-ary min-heap storing events
// by value: scheduling performs no per-event allocation (the backing array
// grows amortized), and the comparison is specialized to the (at, seq) key
// instead of going through container/heap's interface dispatch.
package sim

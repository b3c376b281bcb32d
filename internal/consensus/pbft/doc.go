// Package pbft implements the paper's PBFT family on the simulated
// network:
//
//   - HL: stock PBFT as in Hyperledger Fabric v0.6 — N = 3f+1, quorum
//     2f+1, client requests broadcast by the receiving replica, one shared
//     inbound queue for request and consensus traffic.
//   - AHL (Attested HyperLedger, §4.1): PBFT hardened with the attested
//     append-only memory. Equivocation is impossible, so N = 2f+1 with
//     quorum f+1.
//   - AHL+opt1: AHL with the inbound queue split per message class.
//   - AHL+ (opt1+opt2): additionally, client requests are forwarded to the
//     leader instead of broadcast.
//   - AHLR (opt3): AHL+ where followers vote to the leader, whose
//     aggregation enclave emits one quorum certificate per phase —
//     O(N) normal-case communication, at the price of making the leader a
//     single point of failure for progress.
//
// All variants share one replica engine parameterized by Options; the
// differences above are data, not forks of the protocol code, which is
// what makes the Figure 10 ablation meaningful.
//
// Role in the AHL design: this is the intra-shard consensus layer — each
// shard committee and the reference committee R run one instance of it
// over internal/simnet, with enclave operations charged through
// internal/tee. Raising fault tolerance from f < n/3 to f < n/2 via the
// attested log is what lets internal/sharding form ~80-node committees
// instead of 600+ at a 25% adversary, and the opt1-3 queue/communication
// optimizations are what keep those committees live at N=79 and on WAN
// deployments (Figures 8, 9, 14). Byzantine behaviors (equivocation,
// silence) are injectable per replica for the failure experiments.
//
// # Pipelined protocol flow
//
// Ordering and execution are decoupled, as in classic PBFT: the leader
// assigns sequence numbers and issues pre-prepares without waiting for
// earlier sequences to execute, bounded by min(stable checkpoint + Window,
// executedThrough + PipelineDepth) — see maxAssign. Prepares and commits
// for many sequences run concurrently; execution alone is strictly
// ordered, advancing executedThrough one sequence at a time only after
// the commit quorum forms and (on durable nodes) the decided block's WAL
// append returns. A view change collects every in-flight sequence above
// the stable checkpoint into the new-view message, so a deep pipeline
// survives leader failure with no decided sequence lost and no sequence
// executed twice (pipeline_test.go pins this).
//
// Two levers separate the two regimes the runtimes run, and the
// runtime, not the user, picks between them. The simulator leaves both
// at their zero values (Window-only bound, fixed batch timer), so the
// published figures stay byte-identical; the live runtime
// (internal/core's ClusterConfig) always turns both on. Each regime
// measurably wins on its own runtime's workloads: adaptive batching in
// the simulator cuts fig2's HL throughput at N=7 from 4000 to 1803 tx/s,
// while the fixed timer on the live path halves single-shard write
// goodput and raises its p50 from ~5 ms to ~21 ms.
//
//   - AdaptiveBatch replaces the fixed BatchTimeout cadence when the
//     pipeline is idle: a partial batch is cut after the short
//     DefaultBatchMinDelay coalescing window instead of waiting out the
//     full timer. Under load the fixed cadence is kept — larger batches
//     amortize per-sequence protocol cost.
//   - PipelineDepth caps how far sequence assignment may run ahead of
//     local execution (0 = checkpoint window only).
//
// Both runtimes execute a decided block the same way: serially on the
// engine goroutine, each transaction through chaincode.Registry.Execute
// in block order. Execution is a fraction of a millisecond per block
// against milliseconds of PBFT commit and tens of milliseconds of 2PC,
// so the protocol, not execution, bounds throughput.
package pbft

package pbft

import (
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/tee/aaom"
	"repro/internal/tee/aggregator"
	"repro/internal/wire"
)

// Variant selects the protocol configuration.
type Variant int

// The protocol variants, in the order the Figure 10 ablation adds them.
const (
	VariantHL Variant = iota
	VariantAHL
	VariantAHLOpt1
	VariantAHLPlus
	VariantAHLR
)

func (v Variant) String() string {
	switch v {
	case VariantHL:
		return "HL"
	case VariantAHL:
		return "AHL"
	case VariantAHLOpt1:
		return "AHL+op1"
	case VariantAHLPlus:
		return "AHL+"
	case VariantAHLR:
		return "AHLR"
	default:
		return "pbft?"
	}
}

// Attested reports whether the variant uses the trusted log (2f+1
// committees).
func (v Variant) Attested() bool { return v != VariantHL }

// SplitQueues reports whether the variant uses optimization 1.
func (v Variant) SplitQueues() bool { return v >= VariantAHLOpt1 }

// ForwardToLeader reports whether the variant uses optimization 2.
func (v Variant) ForwardToLeader() bool { return v >= VariantAHLPlus }

// Aggregated reports whether the variant uses optimization 3 (AHLR).
func (v Variant) Aggregated() bool { return v == VariantAHLR }

// Committee returns the right committee shape for the variant over nodes.
func (v Variant) Committee(nodes []simnet.NodeID) consensus.Committee {
	if v.Attested() {
		return consensus.AttestedCommittee(nodes)
	}
	return consensus.BFTCommittee(nodes)
}

// QueueConfig returns the endpoint queue layout for the variant.
func (v Variant) QueueConfig() simnet.QueueConfig {
	if v.SplitQueues() {
		return simnet.DefaultSplitQueue()
	}
	return simnet.DefaultSharedQueue()
}

// Behavior selects how a replica misbehaves; the zero value is honest.
type Behavior int

// Supported misbehaviors for the Figure 8 fault experiments.
const (
	BehaviorHonest Behavior = iota
	// BehaviorEquivocate sends conflicting protocol messages to different
	// peers (different blocks for the same view/sequence). Under AHL the
	// trusted log refuses the second binding, degrading the attack to
	// withholding.
	BehaviorEquivocate
	// BehaviorSilent drops out of the protocol entirely.
	BehaviorSilent
)

// Options configures one replica.
type Options struct {
	Variant   Variant
	Committee consensus.Committee
	// Index is this replica's position in Committee.Nodes.
	Index    int
	Timing   consensus.Timing
	Behavior Behavior

	// BatchSize is the maximum transactions per block.
	BatchSize int
	// Window is the watermark window L: the leader pipelines up to Window
	// outstanding sequence numbers past the last stable checkpoint.
	Window uint64
	// CheckpointEvery takes a checkpoint every this many sequences.
	CheckpointEvery uint64
	// ExecPerTx is the virtual CPU cost of executing one transaction.
	ExecPerTx time.Duration
	// RequestVerify is the cost of admitting one client request.
	RequestVerify time.Duration
	// IntakeCap caps accepted client requests per second (0 = unlimited).
	// Hyperledger v0.6's REST layer caps at roughly 400/s, which is why
	// Tendermint wins Figure 2 at N = 1.
	IntakeCap float64
	// SendReplies makes replicas send a Reply to tx.Client after
	// executing each transaction (closed-loop clients need this; open-
	// loop throughput runs leave it off to avoid N-fold reply traffic).
	SendReplies bool

	// PipelineDepth additionally caps how far proposals may run ahead of
	// execution: the leader stops assigning once
	// seqAssign - executedThrough reaches it. 0 disables the cap, leaving
	// Window (which is anchored at the last stable checkpoint, not at
	// execution) as the only pipelining bound — the legacy behavior.
	PipelineDepth uint64
	// AdaptiveBatch replaces the fixed BatchTimeout batch cut with a
	// load-scaled one: when the pipeline is idle, cut after the short
	// DefaultBatchMinDelay coalescing window; with proposals in flight,
	// keep the BatchTimeout cadence so batches grow under load. Off (the
	// default) preserves the simulator's byte-identical legacy schedule.
	AdaptiveBatch bool
	// ExecWorkers sets the number of goroutines executing non-conflicting
	// transaction groups of a decided block concurrently. 0 uses the
	// package default (serial unless SetDefaultExecWorkers was called);
	// values <= 1 execute serially on the engine goroutine.
	ExecWorkers int
}

// DefaultBatchMinDelay is the adaptive batch cut delay when the pipeline
// is idle.
const DefaultBatchMinDelay = 500 * time.Microsecond

// DefaultOptions fills the tunables with the values used by the paper's
// cluster experiments.
func DefaultOptions(v Variant, committee consensus.Committee, index int) Options {
	return Options{
		Variant:         v,
		Committee:       committee,
		Index:           index,
		Timing:          consensus.DefaultTiming(),
		BatchSize:       500, // Fabric v0.6's default batch size
		Window:          32,
		CheckpointEvery: 16,
		ExecPerTx:       60 * time.Microsecond,
		RequestVerify:   50 * time.Microsecond,
	}
}

// Message type tags on the wire. MsgRequest and MsgReply are exported for
// client gateways.
const (
	MsgRequest    = "pbft/request"
	MsgReply      = "pbft/reply"
	msgRequest    = MsgRequest
	msgRequestFwd = "pbft/request-fwd"
	msgPrePrepare = "pbft/pre-prepare"
	msgPrepare    = "pbft/prepare"
	msgCommit     = "pbft/commit"
	msgCheckpoint = "pbft/checkpoint"
	msgViewChange = "pbft/view-change"
	msgNewView    = "pbft/new-view"
	msgNVReq      = "pbft/nv-req"
	msgVote       = "pbft/vote" // AHLR follower -> leader
	msgQC         = "pbft/qc"   // AHLR leader -> followers
)

// Reply is the execution report sent to a client when SendReplies is set.
type Reply struct {
	TxID    uint64
	OK      bool
	Replica int
}

// ClientRequest builds the network message a client sends to submit tx to
// a replica; like every message, its simulated size is the actual wire
// encoding.
func ClientRequest(to simnet.NodeID, tx chain.Tx) simnet.Message {
	return simnet.Message{To: to, Class: simnet.ClassRequest,
		Type: MsgRequest, Payload: tx, Size: wire.PayloadSize(MsgRequest, tx)}
}

// phase names used for attestation log identities and AHLR items.
const (
	phasePrePrepare = "pre-prepare"
	phasePrepare    = "prepare"
	phaseCommit     = "commit"
)

// prePrepareMsg proposes a block at (view, seq).
type prePrepareMsg struct {
	View  uint64
	Seq   uint64
	Block *chain.Block
	Att   attestation
}

// voteMsg is a prepare or commit vote (broadcast normally; sent to the
// leader under AHLR as an aggregator vote).
type voteMsg struct {
	View    uint64
	Seq     uint64
	Phase   string
	Digest  blockcrypto.Digest
	Replica int
	Att     attestation
	AggVote aggregator.Vote // set under AHLR
}

// qcMsg carries an AHLR quorum certificate.
type qcMsg struct {
	View  uint64
	Seq   uint64
	Phase string
	Cert  aggregator.Cert
	// Block accompanies the prepare-phase certificate so followers that
	// missed the pre-prepare can still execute.
	Block *chain.Block
}

// checkpointMsg announces an executed state digest at a sequence number.
type checkpointMsg struct {
	Seq     uint64
	State   blockcrypto.Digest
	Replica int
	Att     attestation
}

// preparedProof carries a prepared entry across a view change.
type preparedProof struct {
	Seq    uint64
	Digest blockcrypto.Digest
	Block  *chain.Block
}

// viewChangeMsg votes to move to NewView.
type viewChangeMsg struct {
	NewView   uint64
	StableSeq uint64
	Prepared  []preparedProof
	Replica   int
	Att       attestation
}

// newViewMsg installs a view.
type newViewMsg struct {
	View      uint64
	StableSeq uint64
	Reissue   []preparedProof
	Replica   int
	Att       attestation
}

// attestation authenticates a consensus message. Under HL it is a plain
// signature; under AHL it is a trusted-log binding whose slot encodes the
// message's protocol position, making equivocation detectable (in fact,
// unproduceable).
type attestation struct {
	Sig blockcrypto.Signature
	Log aaom.Attestation
}

// attestor abstracts HL signatures vs AHL trusted-log bindings.
type attestor interface {
	// attest authenticates digest d for the message position (log, slot).
	// An AHL attestor returns an error on an equivocation attempt.
	attest(log string, slot uint64, d blockcrypto.Digest) (attestation, error)
	// verify checks an attestation for the claimed position and digest.
	verify(from int, log string, slot uint64, d blockcrypto.Digest, a attestation) bool
	// onStableCheckpoint lets the attestor prune and seal its state.
	onStableCheckpoint(seq uint64)
}

// sigAttestor implements HL authentication: any statement can be signed,
// including two conflicting ones — equivocation is possible.
type sigAttestor struct {
	signer blockcrypto.Signer
	scheme blockcrypto.Verifier
	peers  []blockcrypto.KeyID // replica index -> key id
	costs  tee.CostModel
	charge func(time.Duration)
}

func msgDigest(log string, slot uint64, d blockcrypto.Digest) blockcrypto.Digest {
	return blockcrypto.HashOfDigests(blockcrypto.Hash([]byte(log)), tee.Uint64Digest(slot), d)
}

func (s *sigAttestor) attest(log string, slot uint64, d blockcrypto.Digest) (attestation, error) {
	s.charge(s.costs.Sign)
	return attestation{Sig: s.signer.Sign(msgDigest(log, slot, d))}, nil
}

func (s *sigAttestor) verify(from int, log string, slot uint64, d blockcrypto.Digest, a attestation) bool {
	if from < 0 || from >= len(s.peers) || a.Sig.Signer != s.peers[from] {
		return false
	}
	return s.scheme.Verify(msgDigest(log, slot, d), a.Sig)
}

func (s *sigAttestor) onStableCheckpoint(uint64) {}

// logAttestor implements AHL authentication through the A2M enclave.
type logAttestor struct {
	mem    *aaom.Memory
	scheme blockcrypto.Verifier
	peers  []blockcrypto.KeyID
	costs  tee.CostModel
	charge func(time.Duration)
}

func (l *logAttestor) attest(log string, slot uint64, d blockcrypto.Digest) (attestation, error) {
	att, err := l.mem.Bind(log, slot, d)
	if err != nil {
		return attestation{}, err
	}
	return attestation{Log: att}, nil
}

func (l *logAttestor) verify(from int, log string, slot uint64, d blockcrypto.Digest, a attestation) bool {
	// Verification cost is charged by the message-level Cost function;
	// charging here too would double-bill attested variants.
	if from < 0 || from >= len(l.peers) {
		return false
	}
	if a.Log.Log != log || a.Log.Slot != slot || a.Log.Digest != d {
		return false
	}
	if a.Log.Report.Sig.Signer != l.peers[from] {
		return false
	}
	return a.Log.Verify(l.scheme)
}

func (l *logAttestor) onStableCheckpoint(seq uint64) {
	l.mem.Truncate(seq)
	l.mem.Seal()
}

// Deps bundles the environment a replica is constructed over.
type Deps struct {
	Endpoint *simnet.Endpoint
	Scheme   blockcrypto.Scheme
	Signer   blockcrypto.Signer
	// PeerKeys maps replica index -> key id for message verification.
	PeerKeys []blockcrypto.KeyID
	Platform *tee.Platform
	// AAOM is the trusted log enclave; required for attested variants.
	AAOM     *aaom.Memory
	Registry *chaincode.Registry
	Store    *chain.Store
	// Durable, when non-nil, makes the replica write decided batches and
	// stable-checkpoint snapshots through it (see durable.go). Live nodes
	// pass their storage backend; the simulator leaves it nil, keeping the
	// deterministic path byte-identical.
	Durable storage.Backend
	// Obs, when non-nil, instruments the replica's live path (metrics +
	// lifecycle tracing; see obs.go). Nil — the default everywhere the
	// byte-identical BENCH baselines run — records nothing.
	Obs *obs.Hub
}

func executionResultsDigest(results []chaincode.Result) blockcrypto.Digest {
	ds := make([]blockcrypto.Digest, 0, len(results))
	for _, r := range results {
		ok := byte(0)
		if r.OK() {
			ok = 1
		}
		td := r.Tx.Digest()
		ds = append(ds, blockcrypto.Hash(td[:], []byte{ok}))
	}
	return blockcrypto.HashOfDigests(ds...)
}

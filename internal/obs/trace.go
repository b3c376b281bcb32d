package obs

import (
	"math/bits"
	"sync"
)

// Stage labels one point in a transaction's lifecycle. Per-sequence
// stages (PrePrepare..ExecEnd) describe the consensus instance the
// transaction rode in; per-transaction and per-key stages follow one
// transaction across layers.
type Stage uint8

const (
	// StageSubmit: a client request was admitted at a replica.
	StageSubmit Stage = iota + 1
	// StageBatch: the request was cut into a batch (Arg = batch sequence).
	StageBatch
	// StagePrePrepare: a pre-prepare for Seq was proposed (leader) or
	// accepted (follower).
	StagePrePrepare
	// StageCommitQuorum: Seq reached its commit quorum (Arg = batch size).
	StageCommitQuorum
	// StageWALAppend: the decided batch was journaled (Arg = append ns).
	StageWALAppend
	// StageExecStart / StageExecEnd bracket batch execution (ExecEnd's
	// Arg = batch size).
	StageExecStart
	StageExecEnd
	// StageReply: a client reply for Tx was sent.
	StageReply
	// Stage2PCBegin: reference committee executed begin(Key); prepares
	// were sent to the involved shards.
	Stage2PCBegin
	// Stage2PCPrepare: a shard reached its prepare quorum for Key and
	// injected the lock-acquiring prepare transaction.
	Stage2PCPrepare
	// Stage2PCVote: the shard executed the prepare — locks held, vote
	// sent (Arg = lock-wait ns since Stage2PCPrepare).
	Stage2PCVote
	// Stage2PCDecide: the shard reached its decide quorum and injected
	// the phase-2 (commit/abort) transaction (Arg = 1 commit, 0 abort).
	Stage2PCDecide
	// Stage2PCDone: the phase-2 transaction executed — locks released
	// (Arg = lock-hold ns since Stage2PCVote). On the reference
	// committee: the decision was announced (Arg = 1 commit, 0 abort).
	Stage2PCDone
)

var stageNames = [...]string{
	StageSubmit:       "submit",
	StageBatch:        "batch",
	StagePrePrepare:   "pre-prepare",
	StageCommitQuorum: "commit-quorum",
	StageWALAppend:    "wal-append",
	StageExecStart:    "exec-start",
	StageExecEnd:      "exec-end",
	StageReply:        "reply",
	Stage2PCBegin:     "2pc-begin",
	Stage2PCPrepare:   "2pc-prepare",
	Stage2PCVote:      "2pc-vote",
	Stage2PCDecide:    "2pc-decide",
	Stage2PCDone:      "2pc-done",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) && stageNames[s] != "" {
		return stageNames[s]
	}
	return "unknown"
}

// stageFromName inverts String for trace re-import.
func stageFromName(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n != "" && n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Event is one fixed-size trace record. Key aliases the recording
// layer's transaction-ID string (no copy on the record path).
type Event struct {
	TS    int64
	Node  uint32
	Stage Stage
	Seq   uint64
	Tx    uint64
	Key   string
	Arg   int64
}

// Tracer is a bounded ring of lifecycle events. Recording takes an
// uncontended mutex (the exporter may read concurrently) and writes one
// preallocated slot: 0 allocs/op. Sampling is deterministic — a pure
// function of the transaction ID — so sim-mode traces are byte-identical
// across runs.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total uint64
	mask  uint64 // sample tx when hash&mask == 0; 0 records all
}

func newTracer(cap, sampleEvery int) *Tracer {
	t := &Tracer{ring: make([]Event, cap)}
	if sampleEvery > 1 {
		// Round down to a power of two so sampling is a single mask.
		t.mask = uint64(1)<<uint(bits.Len64(uint64(sampleEvery))-1) - 1
	}
	return t
}

// SampleTx reports whether per-transaction events for tx are recorded.
func (t *Tracer) SampleTx(tx uint64) bool {
	return t != nil && mix64(tx)&t.mask == 0
}

// SampleKey reports whether per-key (cross-shard 2PC) events for key
// are recorded. The hash is FNV-1a: stable across processes, so every
// shard samples the same transactions.
func (t *Tracer) SampleKey(key string) bool {
	if t == nil {
		return false
	}
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h&t.mask == 0
}

// mix64 is splitmix64's finalizer: client txn IDs are structured
// (client<<48|salt), so sampling on the raw low bits would skew.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Total returns the number of events ever recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events copies out the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	out := make([]Event, 0, n)
	start := t.next - int(n)
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < int(n); i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Package storage is the durability layer under a live replica: a narrow
// Backend interface with two engines behind it — a trivial in-memory one
// (the simulator's path, and the contract-test reference) and a persistent
// one built on a length-prefixed, CRC-checksummed, fsync-on-commit
// write-ahead log plus periodic state snapshot files.
//
// The protocol layers write through the interface at three points:
//
//   - a pbft replica appends every decided batch before executing it;
//   - the transaction manager appends opaque 2PC stage-transition records
//     (write-ahead of acting on them);
//   - at every stable checkpoint the replica saves a Snapshot — world
//     state, execution dedup set, checkpoint certificate, and the
//     manager's live stage state — after which the WAL prefix it covers
//     is truncated.
//
// Recovery is the inverse: load the newest snapshot that passes its CRC
// (falling back to the previous one on corruption), then replay the WAL
// tail in append order, truncating the final segment at the first frame
// crash damage made unreadable. Anything decided
// while the process was down is fetched from peers by the existing pbft
// state-sync/replay protocols — the backend only has to bring the node
// back to a state the committee once agreed on.
package storage

import (
	"errors"

	"repro/internal/chain"
)

// Kind tags a WAL record.
type Kind byte

// The WAL record kinds.
const (
	// KindBlock is a decided batch, appended before execution.
	KindBlock Kind = 1
	// KindStage is an opaque 2PC stage-transition record owned by the
	// transaction layer; the backend never interprets its payload.
	KindStage Kind = 2
)

// Record is one WAL entry.
type Record struct {
	Kind Kind
	// Seq is the consensus sequence number (KindBlock only).
	Seq uint64
	// Block is the decided batch (KindBlock only).
	Block *chain.Block
	// Stage is the opaque stage payload (KindStage only).
	Stage []byte
}

// Snapshot is the recovery root a replica persists at a stable
// checkpoint. State and the id sets are interpreted by the replica; Cert
// and Stage are opaque owner-encoded blobs (the checkpoint certificate
// and the transaction manager's live stage state).
type Snapshot struct {
	// Seq is the stable checkpoint sequence number Cert covers.
	Seq uint64
	// ExecutedThrough is the highest decided sequence State reflects. It
	// can exceed Seq: a checkpoint quorum may form after the replica has
	// executed further blocks that happened not to mutate state (only
	// deduplicated or failed transactions), and the capture always
	// reflects everything executed so far. Recovery must resume replay at
	// ExecutedThrough+1, not Seq+1. Zero means "same as Seq".
	ExecutedThrough uint64
	// View is the replica's view at capture time.
	View uint64
	// State is the recovered world state: Recover fills it, SaveSnapshot
	// ignores it.
	State chain.Snapshot
	// StateView is the world state to save, which SaveSnapshot requires:
	// an immutable pinned reader whose ordered entries are streamed into
	// the encoding in one pass. Recover leaves it nil.
	StateView *chain.Reader
	// ExecIDs is the executed-transaction dedup set at Seq, sorted.
	ExecIDs []uint64
	// OKIDs is the subset of ExecIDs whose execution succeeded, sorted.
	OKIDs []uint64
	// FailIDs is the subset of ExecIDs that executed locally with an
	// error, sorted. Ids in ExecIDs but in neither OKIDs nor FailIDs were
	// learned through a network snapshot, so this replica never observed
	// their result — the three-way split survives restart because it
	// drives client re-replies (answered only for locally-known results).
	FailIDs []uint64
	// Cert is the checkpoint certificate that made Seq stable, encoded by
	// the consensus layer.
	Cert []byte
	// Stage is the transaction manager's serialized in-flight 2PC state.
	Stage []byte
}

// Typed failures. Recovery code switches on these; they are never
// panics.
var (
	// ErrCorrupt reports WAL or snapshot bytes that fail structural
	// validation (bad magic, CRC mismatch, or an undecodable record) at a
	// position that cannot be explained as a torn final write.
	ErrCorrupt = errors.New("storage: corrupt data")
	// ErrClosed reports use of a closed backend.
	ErrClosed = errors.New("storage: backend closed")
)

// Backend is the durability interface. Implementations are not
// goroutine-safe: the live runtime calls them from the node's
// single-threaded engine loop (plus one recovery pass before it starts).
type Backend interface {
	// Append durably adds one record to the WAL. When the backend's
	// commit policy is fsync-on-commit the record has reached stable
	// storage when Append returns.
	Append(rec Record) error

	// SaveSnapshot durably replaces the recovery root. After it returns,
	// Recover will prefer this snapshot, and WAL records appended before
	// the call are no longer needed for recovery (TruncateBefore may
	// reclaim them).
	SaveSnapshot(snap Snapshot) error

	// Recover loads the newest valid snapshot (nil if none was ever
	// saved) and the WAL tail to replay after it, in append order. Crash
	// damage in the log's unsynced suffix (a torn tail, or a bad frame
	// the OS wrote back out of order) is truncated away along with what
	// followed it, not returned; a snapshot that fails
	// validation is skipped in favor of its predecessor. The returned
	// error is non-nil only when the data is damaged beyond the
	// torn-tail/fallback rules (ErrCorrupt) or the store is unreadable.
	Recover() (*Snapshot, []Record, error)

	// TruncateBefore reclaims WAL storage made obsolete by the latest
	// saved snapshot. seq is advisory (the snapshot's sequence number,
	// for diagnostics); the truncation point is the position SaveSnapshot
	// recorded.
	TruncateBefore(seq uint64) error

	// Sync flushes any buffered writes to stable storage.
	Sync() error

	// Close flushes and releases the backend.
	Close() error
}

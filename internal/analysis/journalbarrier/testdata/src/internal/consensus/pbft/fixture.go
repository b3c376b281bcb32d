// Fixture for the journalbarrier analyzer: the allowlisted containers
// and barrier function exist with the right structure; one rogue
// function calls a sink outside the allowlist.
package pbft

import (
	"internal/chain"
	"internal/chaincode"
)

type Replica struct {
	reg    *chaincode.Registry
	store  *chain.Store
	ledger *chain.Ledger
}

func (r *Replica) appendDecided(seq uint64) {}

func (r *Replica) ExecArg(seq uint64) {}

// tryExecute journals before handing off — the verified barrier.
func (r *Replica) tryExecute(seq uint64) {
	r.appendDecided(seq)
	r.ExecArg(seq)
}

// finishExecute is allowlisted: tryExecute scheduled it after the WAL
// append succeeded.
func (r *Replica) finishExecute(tx any) {
	r.ledger.Append(tx)
	r.store.Apply(tx)
	r.reg.Execute(tx)
}

// ReplayDecided is allowlisted: boot recovery re-executes the WAL.
func (r *Replica) ReplayDecided(tx any) {
	r.ledger.Append(tx)
	r.reg.Execute(tx)
}

// rogue executes and mutates state with no journal barrier anywhere in
// sight.
func (r *Replica) rogue(tx any) {
	r.reg.ExecuteOver(nil, tx) // want `called outside the journal barrier`
	r.store.Apply(tx)          // want `called outside the journal barrier`
}

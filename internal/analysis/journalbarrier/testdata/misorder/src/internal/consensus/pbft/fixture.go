// Misordered-barrier fixture: tryExecute hands off execution before the
// WAL append, which the structural check must reject.
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

func (r *Replica) tryExecute(seq uint64) { // want `appendDecided must be called before ExecArg`
	r.ExecArg(seq)
	r.appendDecided(seq)
}

func (r *Replica) finishExecute(tx any) {
	r.ledger.Append(tx)
	r.store.Apply(tx)
	r.reg.Execute(tx)
}

func (r *Replica) ReplayDecided(tx any) {
	r.ledger.Append(tx)
	r.reg.Execute(tx)
}

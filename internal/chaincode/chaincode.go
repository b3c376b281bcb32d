// Package chaincode implements the smart-contract layer of the system:
// the execution context chaincodes run in, the two BLOCKBENCH benchmark
// chaincodes the paper evaluates with (KVStore and SmallBank, §7), and the
// sharded variants of SmallBank whose sendPayment is split into
// preparePayment / commitPayment / abortPayment with `L_`-key locks, as
// described in §6.3.
package chaincode

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/chain"
)

// Reader is the read-only state view a chaincode invocation runs over.
// *chain.Store implements it directly.
type Reader interface {
	Get(key string) ([]byte, bool)
}

// Ctx is the execution context handed to a chaincode invocation. It
// buffers writes so a failed invocation leaves the store untouched, and it
// records read/write sets for cost accounting.
type Ctx struct {
	store     Reader
	writes    map[string][]byte // pending writes; nil value = delete
	order     []string          // write order for deterministic write-sets
	reads     int
	committed []string // distributed txids whose staged state this invocation applied
}

// NewCtx returns a context over store.
func NewCtx(store Reader) *Ctx {
	return &Ctx{store: store, writes: make(map[string][]byte)}
}

// Get reads a key, observing pending writes first.
func (c *Ctx) Get(key string) ([]byte, bool) {
	c.reads++
	if v, ok := c.writes[key]; ok {
		if v == nil {
			return nil, false
		}
		return append([]byte(nil), v...), true
	}
	return c.store.Get(key)
}

// Put buffers a write.
func (c *Ctx) Put(key string, value []byte) {
	if _, seen := c.writes[key]; !seen {
		c.order = append(c.order, key)
	}
	c.writes[key] = append([]byte(nil), value...)
}

// Del buffers a deletion.
func (c *Ctx) Del(key string) {
	if _, seen := c.writes[key]; !seen {
		c.order = append(c.order, key)
	}
	c.writes[key] = nil
}

// Reads returns the number of Get calls made.
func (c *Ctx) Reads() int { return c.reads }

// MarkCommitted records that this invocation applied the staged writes of
// distributed transaction txid (CommitStaged calls it). The executor uses
// the record to maintain the store's commit index, which height-pinned
// readers need to resolve in-flight 2PC residues.
func (c *Ctx) MarkCommitted(txid string) { c.committed = append(c.committed, txid) }

// Committed returns the distributed txids this invocation committed.
func (c *Ctx) Committed() []string { return c.committed }

// WriteSet returns the buffered writes in first-write order.
func (c *Ctx) WriteSet() chain.WriteSet {
	ws := make(chain.WriteSet, 0, len(c.order))
	for _, k := range c.order {
		ws = append(ws, chain.Write{Key: k, Value: c.writes[k]})
	}
	return ws
}

// KV is the minimal state interface chaincode business logic is written
// against. *Ctx implements it; so do the shardlib views that replay the
// same logic in 2PL staging mode (§6.4's automatic transformation).
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Del(key string)
}

var _ KV = (*Ctx)(nil)

// Logic is a chaincode's business logic expressed over the KV interface,
// independent of the execution mode (direct or staged).
type Logic func(kv KV, fn string, args []string) error

// Chaincode is a deterministic smart contract.
type Chaincode interface {
	// Name is the chaincode's registry name.
	Name() string
	// Invoke executes fn with args against ctx. A non-nil error marks the
	// transaction invalid; its write-set is discarded.
	Invoke(ctx *Ctx, fn string, args []string) error
}

// Registry maps chaincode names to implementations. A registry is
// replicated identically on every node of a shard.
type Registry struct {
	codes map[string]Chaincode
}

// NewRegistry returns a registry preloaded with the given chaincodes.
func NewRegistry(codes ...Chaincode) *Registry {
	r := &Registry{codes: make(map[string]Chaincode, len(codes))}
	for _, c := range codes {
		r.Register(c)
	}
	return r
}

// Register adds a chaincode; duplicate names panic.
func (r *Registry) Register(c Chaincode) {
	if _, dup := r.codes[c.Name()]; dup {
		panic(fmt.Sprintf("chaincode: duplicate %q", c.Name()))
	}
	r.codes[c.Name()] = c
}

// Result is the outcome of executing one transaction.
type Result struct {
	Tx    chain.Tx
	Err   error
	Reads int
	Write chain.WriteSet
	// Committed lists distributed txids whose staged 2PL state this
	// transaction's write-set applied (commit-phase invocations only).
	Committed []string
}

// OK reports whether the transaction executed successfully.
func (res Result) OK() bool { return res.Err == nil }

// Execute runs tx against store, applying its write-set only on success.
func (r *Registry) Execute(store *chain.Store, tx chain.Tx) Result {
	res := r.ExecuteOver(store, tx)
	if res.OK() {
		store.Apply(res.Write)
	}
	return res
}

// ExecuteOver runs tx against a read-only state view and returns the
// outcome without applying anything: the caller owns ordering and applies
// successful write-sets itself. Execute is the apply-immediately
// convenience over it.
func (r *Registry) ExecuteOver(view Reader, tx chain.Tx) Result {
	cc, ok := r.codes[tx.Chaincode]
	if !ok {
		return Result{Tx: tx, Err: fmt.Errorf("chaincode: unknown chaincode %q", tx.Chaincode)}
	}
	ctx := NewCtx(view)
	err := cc.Invoke(ctx, tx.Fn, tx.Args)
	res := Result{Tx: tx, Err: err, Reads: ctx.Reads()}
	if err == nil {
		res.Write = ctx.WriteSet()
		res.Committed = ctx.Committed()
	}
	return res
}

// Common chaincode errors.
var (
	ErrBadArgs           = errors.New("chaincode: bad arguments")
	ErrUnknownFn         = errors.New("chaincode: unknown function")
	ErrNoAccount         = errors.New("chaincode: no such account")
	ErrInsufficientFunds = errors.New("chaincode: insufficient funds")
	ErrLocked            = errors.New("chaincode: state is locked by another transaction")
	ErrNotLocked         = errors.New("chaincode: no lock held by this transaction")
)

func itoa(v int64) []byte { return []byte(strconv.FormatInt(v, 10)) }

func atoi(b []byte) (int64, error) { return strconv.ParseInt(string(b), 10, 64) }

// Package journalbarrier statically enforces the "journal before
// execute" barrier on the consensus and transaction layers.
//
// PR 5 made replicas durable: a decided batch is appended to the WAL
// before execution (pbft.tryExecute → appendDecided), and the 2PC
// manager journals each stage transition before handing the step to
// consensus (txn.inject → stageWriteInjected → SubmitLocal). A crash
// between decide and execute then replays the WAL instead of losing
// state. That ordering is a pure convention in the source — nothing
// stops a new code path from calling the chaincode registry or mutating
// the store directly, silently reopening the lost-execution window PR 5
// closed.
//
// This analyzer pins the convention with a small call-graph allowlist:
//
//   - "sink" calls — the execution/state-mutation primitives
//     (chaincode Registry.Execute/ExecuteOver, chain Store.Apply,
//     chain Ledger.Append, and, from txn, Replica.SubmitLocal) — may
//     appear only inside the allowlisted container functions, each of
//     which is journal-safe for a reviewed reason;
//   - the barrier functions themselves are structurally verified: the
//     WAL append must lexically precede the execution hand-off inside
//     tryExecute and inject, so the allowlist cannot rot into covering
//     an unjournaled path;
//   - allowlist entries naming functions that no longer exist are
//     reported, so renames force a review of the entry.
//
// A genuinely new execution path therefore requires either calling the
// barrier first or extending the allowlist in this file — a diff a
// reviewer sees.
package journalbarrier

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the journalbarrier check.
var Analyzer = &analysis.Analyzer{
	Name: "journalbarrier",
	Doc:  "require execution/state-mutation calls in pbft/txn to sit behind the WAL append barrier",
	Run:  run,
}

// A funcRef names a package-level function or method by normalized
// package path, receiver type name ("" for plain functions), and name.
type funcRef struct {
	pkg  string
	recv string
	name string
}

func (r funcRef) String() string {
	if r.recv == "" {
		return r.pkg + "." + r.name
	}
	return fmt.Sprintf("(%s.%s).%s", r.pkg, r.recv, r.name)
}

// sinks are the execution/state-mutation primitives per analyzed
// package: calls to these outside an allowlisted container bypass the
// journal barrier.
var sinks = map[string][]funcRef{
	"internal/consensus/pbft": {
		{"internal/chaincode", "Registry", "Execute"},
		{"internal/chaincode", "Registry", "ExecuteOver"},
		{"internal/chain", "Store", "Apply"},
		{"internal/chain", "Ledger", "Append"},
	},
	"internal/txn": {
		{"internal/chaincode", "Registry", "Execute"},
		{"internal/chaincode", "Registry", "ExecuteOver"},
		{"internal/chain", "Store", "Apply"},
		{"internal/chain", "Ledger", "Append"},
		// Handing a protocol step to consensus is the txn layer's
		// execution hand-off; it must be journaled as stageInjected
		// first or a crash forgets the in-flight step.
		{"internal/consensus/pbft", "Replica", "SubmitLocal"},
	},
}

// allowed is the call-graph allowlist: container functions whose sink
// calls are journal-safe, with the reviewed reason.
var allowed = map[string]map[funcRef]string{
	"internal/consensus/pbft": {
		{"internal/consensus/pbft", "Replica", "finishExecute"}: "scheduled by tryExecute strictly after appendDecided succeeded; the WAL already holds the batch",
		{"internal/consensus/pbft", "Replica", "ReplayDecided"}: "boot recovery re-executing what the WAL itself holds",
	},
	"internal/txn": {
		{"internal/txn", "Manager", "inject"}:         "journals stageWriteInjected before Replica.SubmitLocal (structurally verified below)",
		{"internal/txn", "Manager", "FinishRecovery"}: "boot recovery resubmitting steps the stage journal already holds; journaling them again would double-write the same records",
		{"internal/txn", "Manager", "handleVote"}:     "reference-side vote aggregation needs no journal: shards retransmit votes until a decision is announced, so a crash here re-aggregates, and DeriveTxID makes the resubmitted step deduplicate in consensus",
	},
}

// A barrierCheck structurally verifies one barrier function: inside fn,
// a call to barrier must exist and lexically precede any call to
// handoff. This keeps the allowlist honest — tryExecute really does
// journal before scheduling execution.
type barrierCheck struct {
	fn      funcRef
	barrier string // method name that performs the journal append
	handoff string // method name that starts execution / hands off
}

var barrierChecks = map[string][]barrierCheck{
	"internal/consensus/pbft": {
		{fn: funcRef{"internal/consensus/pbft", "Replica", "tryExecute"}, barrier: "appendDecided", handoff: "ExecArg"},
	},
	"internal/txn": {
		{fn: funcRef{"internal/txn", "Manager", "inject"}, barrier: "stageWriteInjected", handoff: "SubmitLocal"},
	},
}

func run(pass *analysis.Pass) error {
	path := analysis.NormalizePath(pass.Path)
	sinkRefs, ok := sinks[path]
	if !ok {
		return nil
	}
	allowedHere := allowed[path]

	declared := make(map[funcRef]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[declRef(pass, fd)] = fd
		}
	}

	// Stale allowlist entries mean a rename happened without review.
	for ref, reason := range allowedHere {
		if _, ok := declared[ref]; !ok {
			pass.Reportf(pass.Files[0].Pos(),
				"journalbarrier allowlist entry %s (%q) names no function in %s: update the allowlist after the rename/removal",
				ref, reason, path)
		}
	}

	// Sink calls outside the allowlist.
	for ref, fd := range declared {
		if _, ok := allowedHere[ref]; ok {
			continue
		}
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeRef(pass, call)
			if callee == nil {
				return true
			}
			for _, s := range sinkRefs {
				if *callee == s {
					pass.Reportf(call.Pos(),
						"%s called outside the journal barrier (in %s): decided state must hit the WAL before execution — route through an allowlisted path or extend the journalbarrier allowlist with a reviewed reason",
						s, ref)
				}
			}
			return true
		})
	}

	// Structural verification of the barrier functions themselves.
	for _, bc := range barrierChecks[path] {
		fd, ok := declared[bc.fn]
		if !ok {
			pass.Reportf(pass.Files[0].Pos(),
				"journalbarrier: barrier function %s not found in %s: the journal-before-execute invariant is no longer anchored — update the check",
				bc.fn, path)
			continue
		}
		barrierPos := firstMethodCall(pass, fd, bc.barrier)
		handoffPos := firstMethodCall(pass, fd, bc.handoff)
		switch {
		case !barrierPos.IsValid():
			pass.Reportf(fd.Pos(),
				"journalbarrier: %s no longer calls %s: the WAL append barrier is gone — decided batches can execute without being journaled",
				bc.fn, bc.barrier)
		case handoffPos.IsValid() && barrierPos > handoffPos:
			pass.Reportf(fd.Pos(),
				"journalbarrier: in %s, %s must be called before %s: journal first, then execute",
				bc.fn, bc.barrier, bc.handoff)
		}
	}
	return nil
}

// declRef computes the funcRef a declaration defines.
func declRef(pass *analysis.Pass, fd *ast.FuncDecl) funcRef {
	ref := funcRef{pkg: analysis.NormalizePath(pass.Path), name: fd.Name.Name}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Strip type parameters on generic receivers.
		if ix, ok := t.(*ast.IndexExpr); ok {
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			ref.recv = id.Name
		}
	}
	return ref
}

// calleeRef resolves a call's static callee to a funcRef, or nil for
// dynamic calls and builtins.
func calleeRef(pass *analysis.Pass, call *ast.CallExpr) *funcRef {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	ref := funcRef{pkg: analysis.NormalizePath(fn.Pkg().Path()), name: fn.Name()}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			ref.recv = named.Obj().Name()
		}
	}
	return &ref
}

// firstMethodCall returns the position of the lexically first call to a
// method/function of the given name inside fd, or NoPos.
func firstMethodCall(pass *analysis.Pass, fd *ast.FuncDecl, name string) token.Pos {
	pos := token.NoPos
	if fd.Body == nil {
		return pos
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		}
		if id != nil && id.Name == name {
			pos = call.Pos()
			return false
		}
		return true
	})
	return pos
}

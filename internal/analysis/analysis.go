// Package analysis is a self-contained static-analysis framework for the
// repository's determinism-and-safety lint suite (ahlvet). It mirrors the
// shape of golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic —
// so the analyzers could migrate to the upstream framework mechanically,
// but it is built entirely on the standard library: packages are loaded
// with `go list -export` and type-checked with go/types against compiler
// export data, so the module needs no dependencies.
//
// The suite exists because the repo's replicas must be deterministic
// state machines: the simulator's byte-identical replay, the exact
// smoke-table gate, and the published BENCH baselines all assume that
// re-running a schedule reproduces the same bytes. The dynamic harnesses
// (fault replay, the smoke-table gate) only sample that
// property; the analyzers in the subdirectories enforce the underlying
// invariants on every build:
//
//   - maporder: no nondeterministically-ordered map iteration in
//     deterministic packages (see DeterministicPackage);
//   - walltime: no wall-clock or global math/rand use in those packages —
//     time comes from the engine, randomness from seeded *rand.Rand;
//   - wireexhaust: every message-type constant in a wire-registering
//     package has a codec and vice versa (drift is a runtime decode
//     panic on the live transport);
//   - journalbarrier: execution/state-mutation primitives in the
//     consensus and transaction layers are only reachable behind the
//     "journal before execute" WAL barrier.
//
// A finding can be suppressed with a same-line or preceding-line comment
//
//	//ahl:nondeterministic <reason>
//
// The reason is mandatory and suppressions that suppress nothing are
// themselves reported, so annotations cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer. Reported diagnostics are
// filtered against //ahl:nondeterministic suppressions by the framework;
// analyzers just call Report.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's import path as the build system reports it.
	Path string

	pkg *Package // suppression state shared across the suite's passes
	out *[]Finding
}

// Reportf records a diagnostic at pos unless a suppression covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg != nil && p.pkg.suppressed(position) {
		return
	}
	*p.out = append(*p.out, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Finding is one diagnostic that survived suppression filtering.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Package is a loaded, type-checked package plus its suppression table.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	sups []*suppression
}

// suppression is one //ahl:nondeterministic comment.
type suppression struct {
	file   string
	line   int
	reason string
	used   bool
}

// SuppressDirective is the comment prefix that waives a finding on its
// own line or the line below. Everything after the directive is the
// mandatory human-readable reason.
const SuppressDirective = "//ahl:nondeterministic"

// CollectSuppressions scans a file's comments for suppression
// directives. Loaders call it once per file after parsing.
func (pkg *Package) CollectSuppressions(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, SuppressDirective) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, SuppressDirective)
			pos := pkg.Fset.Position(c.Pos())
			pkg.sups = append(pkg.sups, &suppression{
				file:   pos.Filename,
				line:   pos.Line,
				reason: strings.TrimSpace(rest),
			})
		}
	}
}

// suppressed reports whether a finding at pos is covered by a directive
// on the same line or the line directly above, and marks that directive
// used.
func (pkg *Package) suppressed(pos token.Position) bool {
	for _, s := range pkg.sups {
		if s.file == pos.Filename && (s.line == pos.Line || s.line == pos.Line-1) {
			s.used = true
			return true
		}
	}
	return false
}

// Audit reports suppression hygiene: directives with no reason and
// directives that suppressed nothing. Run after every analyzer in the
// suite has had its chance to consume them.
func (pkg *Package) Audit(out *[]Finding) {
	for _, s := range pkg.sups {
		pos := token.Position{Filename: s.file, Line: s.line, Column: 1}
		if s.reason == "" {
			*out = append(*out, Finding{
				Analyzer: "suppress",
				Pos:      pos,
				Message:  "suppression without a reason: write " + SuppressDirective + " <why order/time cannot matter here>",
			})
		}
		if !s.used {
			*out = append(*out, Finding{
				Analyzer: "suppress",
				Pos:      pos,
				Message:  "unused " + SuppressDirective + " suppression: no analyzer reports here — delete it",
			})
		}
	}
}

// RunAnalyzers applies analyzers to pkg, appending surviving findings to
// out. Analyzer errors (not diagnostics) abort the run.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, out *[]Finding) error {
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.Path,
			pkg:       pkg,
			out:       out,
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	return nil
}

// SortFindings orders findings by file, line, column, analyzer for
// stable output (the loader may produce packages in any order).
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// NormalizePath strips the module prefix from an import path so analyzer
// configuration and test fixtures can name packages the same way:
// "repro/internal/sim" and a fixture loaded as "internal/sim" both
// normalize to "internal/sim".
func NormalizePath(path string) string {
	return strings.TrimPrefix(path, "repro/")
}

// DeterministicPackage reports whether the package at path must behave as
// a deterministic state machine: every package that runs under the
// discrete-event simulator or on the replicated execution path, plus the
// report renderer (whose output is diffed byte-for-byte in CI). The live
// I/O layers (transport, storage), the bench runner (wall-clock
// metadata), and the binaries are exempt.
func DeterministicPackage(path string) bool {
	p := NormalizePath(path)
	for _, det := range detPackages {
		if p == det || strings.HasPrefix(p, det+"/") {
			return true
		}
	}
	return false
}

// detPackages are the deterministic package roots (module prefix
// stripped; subpackages included). See DeterministicPackage.
var detPackages = []string{
	"internal/sim",
	"internal/simnet",
	"internal/consensus",
	"internal/txn",
	"internal/sharding",
	"internal/faults",
	"internal/chaincode",
	"internal/workload",
	"internal/chain",
	"internal/blockcrypto",
	"internal/tee",
	"internal/wire",
	"internal/report",
	"internal/core",
	"internal/obs",
	"internal/query",
}

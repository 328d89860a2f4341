// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, sized to what cogarmvet (cmd/cogarmvet)
// needs: named Analyzer passes over one type-checked package at a time,
// position-carrying diagnostics, and serializable per-object facts that
// flow between packages so properties like "this function may block"
// compose across import boundaries.
//
// # Why not golang.org/x/tools itself
//
// The repo builds hermetically from a bare Go toolchain — no module
// downloads, no vendoring — and that zero-dependency discipline is itself
// one of the invariants the vet suite guards. Everything x/tools'
// unitchecker actually does for a vettool (parse the vet config, type-check
// from export data, thread fact files, print diagnostics) is a few hundred
// lines against the standard library's go/* packages, so cogarmvet carries
// its own copy of exactly that. The API shapes here (Analyzer, Pass,
// Diagnostic, Fact) deliberately mirror x/tools so the analyzers could be
// ported to the real framework by changing imports.
//
// Drivers live next door: unit.go implements the `go vet -vettool`
// protocol, standalone.go implements whole-module analysis via
// `go list -export`, and analysistest provides the golden-comment fixture
// harness the analyzer tests use.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -want comments.
	Name string
	// Doc is the one-paragraph description shown by cogarmvet help.
	Doc string
	// FactTypes lists the fact value types this analyzer may export or
	// import. Each must be a pointer to a gob-encodable struct; an
	// analyzer that declares no fact types cannot use facts.
	FactTypes []Fact
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Fact is a serializable datum attached to a package-level object (for
// cogarmvet: functions and methods) by one package's analysis and visible
// to the analyses of importing packages. Implementations must be pointers
// and gob-encodable.
type Fact interface{ AFact() }

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is the reporting analyzer's name; drivers fill it in.
	Analyzer string
}

// Pass carries one analyzer's view of one package: syntax, types, and the
// fact store. The driver constructs it; Run inspects and reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	store *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj, making it visible to this
// package's importers. obj must belong to the package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.store != nil {
		p.store.export(p.Analyzer, obj, fact)
	}
}

// ImportObjectFact reports whether a fact of ptr's concrete type has been
// attached to obj — by this pass (same package) or by the analysis of the
// package that declares obj — and if so copies it into ptr.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if p.store == nil {
		return false
	}
	return p.store.lookup(p.Analyzer, obj, ptr)
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"sort"
)

// Unit is one parsed, type-checked package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// ParseFiles parses the named Go source files with comments retained
// (annotations live in comments, so every driver must keep them).
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheck type-checks files as the package at importPath, resolving
// imports through imp. goVersion may be empty ("use the toolchain's
// language version").
func TypeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer, goVersion string) (*Unit, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	cfg := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
		// Report only the first error: one cause is enough to explain a
		// failed unit, and later errors are usually cascades.
	}
	pkg, err := cfg.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// RunAnalyzers runs each analyzer over the unit, sharing store for facts,
// and returns the diagnostics sorted by position then message. Diagnostics
// at lines the source waives via //cogarm:allow are dropped here, so every
// analyzer honours suppression identically; malformed suppressions are
// reported as diagnostics of the pseudo-analyzer "cogarmvet".
func RunAnalyzers(u *Unit, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	supp := FileSuppressions(u.Fset, u.Files, func(d Diagnostic) { diags = append(diags, d) })
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			store:     store,
		}
		pass.Report = func(d Diagnostic) {
			if supp.Allowed(a.Name, d.Pos) {
				return
			}
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.Pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

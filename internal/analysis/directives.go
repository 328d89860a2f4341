package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The repo's annotation grammar (normative; ARCHITECTURE.md "Static
// invariants" documents it for humans):
//
//	//cogarm:zeroalloc
//	    On a function, method, or interface method declaration: the
//	    function must perform no steady-state heap allocation, checked by
//	    the zeroalloc analyzer (transitively through its callees). On a
//	    declaration without a Go body (an assembly routine) it is the
//	    author's claim, accepted only together with //go:noescape.
//
//	//cogarm:allow <analyzer> -- <reason>
//	    On or immediately above an offending line: suppress that
//	    analyzer's diagnostics for the line. The reason is mandatory —
//	    a suppression without one is itself reported.
//
// Directives are ordinary line comments beginning exactly "//cogarm:".

const directivePrefix = "//cogarm:"

// HasDirective reports whether doc carries the named //cogarm: directive.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			if field := strings.Fields(text); len(field) > 0 && field[0] == name {
				return true
			}
		}
	}
	return false
}

// Suppressions records, per file line, which analyzers the source has
// explicitly waived via //cogarm:allow.
type Suppressions struct {
	fset  *token.FileSet
	lines map[suppKey]bool
}

type suppKey struct {
	file     string
	line     int
	analyzer string
}

// FileSuppressions collects every //cogarm:allow directive in the files.
// A directive suppresses its own line and the line below it, covering
// both trailing-comment and own-line placement. Malformed directives
// (missing analyzer name or missing "-- reason") are reported through
// report so they fail the build instead of silently suppressing nothing.
func FileSuppressions(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) *Suppressions {
	s := &Suppressions{fset: fset, lines: map[suppKey]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 || fields[0] != "allow" {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "allow"))
				name, reason, found := strings.Cut(rest, "--")
				name = strings.TrimSpace(name)
				if name == "" || !found || strings.TrimSpace(reason) == "" {
					report(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "cogarmvet",
						Message:  "malformed //cogarm:allow: want \"//cogarm:allow <analyzer> -- <reason>\"",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				s.lines[suppKey{pos.Filename, pos.Line, name}] = true
				s.lines[suppKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return s
}

// Allowed reports whether the analyzer's diagnostics are suppressed at pos.
func (s *Suppressions) Allowed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	return s.lines[suppKey{p.Filename, p.Line, analyzer}]
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared AST/type helpers for the cogarmvet analyzers.

// Callee resolves the statically-known object a call invokes: a function,
// a concrete method, or an interface method. It returns nil for calls of
// function values, builtins, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o, ok := info.Uses[fun].(*types.Func); ok {
			return o
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if o, ok := sel.Obj().(*types.Func); ok {
				return o
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if o, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return o
		}
	}
	return nil
}

// CalleeKey renders a function object as "pkgpath.Fn" or
// "pkgpath.(T).M" / "pkgpath.(*T).M" — the form the allowlists use.
// Objects without a package (builtins, unsafe) render as their name.
func CalleeKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	key := objectKey(obj)
	if strings.HasPrefix(key, "(") {
		return obj.Pkg().Path() + "." + key
	}
	return obj.Pkg().Path() + "." + key
}

// ChainOf decomposes an ident/selector chain (x, x.f, x.f.g, ...) into its
// links, outermost last: ChainOf(x.f.g) = [x, x.f, x.f.g]. It returns nil
// if expr is not a pure chain (a call, index, or other operator appears).
func ChainOf(expr ast.Expr) []ast.Expr {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return []ast.Expr{e}
	case *ast.SelectorExpr:
		base := ChainOf(e.X)
		if base == nil {
			return nil
		}
		return append(base, e)
	}
	return nil
}

// SameChain reports whether a and b are the same ident/selector chain —
// same root object and same field selections, per the type checker's
// resolution rather than source text.
func SameChain(info *types.Info, a, b ast.Expr) bool {
	ea, eb := ast.Unparen(a), ast.Unparen(b)
	switch ea := ea.(type) {
	case *ast.Ident:
		ib, ok := eb.(*ast.Ident)
		if !ok {
			return false
		}
		oa, ob := info.ObjectOf(ea), info.ObjectOf(ib)
		return oa != nil && oa == ob
	case *ast.SelectorExpr:
		sb, ok := eb.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		oa, ob := info.ObjectOf(ea.Sel), info.ObjectOf(sb.Sel)
		return oa != nil && oa == ob && SameChain(info, ea.X, sb.X)
	}
	return false
}

// NamedBase returns the named type at the core of t, unwrapping pointers
// and aliases, or nil.
func NamedBase(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

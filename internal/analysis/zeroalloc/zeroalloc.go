// Package zeroalloc rejects heap-allocating constructs in functions
// annotated //cogarm:zeroalloc — the serving stack's hot paths, whose
// steady-state allocation-freedom PRs 5–6 established and whose regression
// the AllocsPerRun benches catch only for the paths they drive. The
// analyzer makes the property structural: every construct the compiler
// must heap-allocate (or that this checker cannot prove it will not) is a
// diagnostic, and the check is transitive — a callee reached from an
// annotated function is held to the same standard, so an edit deep in a
// kernel fails vet rather than the allocation bench.
//
// # What is flagged
//
//   - make, new, slice and map literals, &composite{} (escape-prone)
//   - append whose destination is not the slice it extends (the amortized
//     arena-growth patterns x = append(x, ...), x = append(x[:0], ...)
//     and `return append(dst, ...)` for a parameter-owned dst are allowed)
//   - closures that capture variables, go statements, defer inside loops
//   - string concatenation and string ↔ []byte/[]rune conversions
//   - map writes
//   - boxing a non-pointer-shaped value into an interface (explicit
//     conversions, call arguments — fmt's ...any included — assignments
//     and returns)
//   - method values (x.M used as a value creates a closure)
//   - calls whose target is not verifiably allocation-free: dynamic calls
//     through function values, and calls to functions that are neither
//     annotated //cogarm:zeroalloc (in-package: transitively checked;
//     cross-package: carrying the verified fact), nor on the allowlist of
//     known-clean runtime/stdlib operations
//
// A declaration without a Go body (an assembly routine) cannot be checked; it
// is accepted as a verified leaf when it carries both //cogarm:zeroalloc and
// //go:noescape — the author's claim that the routine allocates nothing, and
// the compiler's guarantee that its pointer arguments stay where they are.
// Annotated without the pragma, or called without the annotation, it is a
// diagnostic.
//
// panic's argument subtree is exempt: a panicking tick is fatal, not steady
// state, so the message (typically fmt.Sprintf) may allocate on its way out.
//
// Cold-path exceptions (lazy arena growth, eviction handling) are waived
// line-by-line with //cogarm:allow zeroalloc -- <reason>, which keeps
// every deviation grep-able and reviewed.
package zeroalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"cognitivearm/internal/analysis"
)

// VerifiedFact marks a function whose body the analyzer has checked (or an
// annotated interface method, whose implementations are the checked
// bodies). Importing packages may call fact-carrying functions from their
// own zero-alloc paths.
type VerifiedFact struct{}

func (*VerifiedFact) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "zeroalloc",
	Doc:       "reject heap-allocating constructs in //cogarm:zeroalloc functions, transitively",
	FactTypes: []analysis.Fact{(*VerifiedFact)(nil)},
	Run:       run,
}

// allowPkgs are packages whose exported functions are wholesale
// allocation-free (pure value math and atomics).
var allowPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"unsafe":      true,
}

// allowFuncs are individually audited stdlib operations that do not
// allocate. Lock operations appear here because zeroalloc is only about
// allocation — blocking under locks is nolockblock's business.
var allowFuncs = map[string]bool{
	"time.Now":                    true,
	"time.Since":                  true,
	"time.(Time).Sub":             true,
	"time.(Time).Unix":            true,
	"time.(Time).UnixNano":        true,
	"time.(Time).IsZero":          true,
	"time.(Time).Before":          true,
	"time.(Time).After":           true,
	"time.(Duration).Nanoseconds": true,
	"time.(Duration).Seconds":     true,
	"sync.(*Mutex).Lock":          true,
	"sync.(*Mutex).Unlock":        true,
	"sync.(*Mutex).TryLock":       true,
	"sync.(*RWMutex).Lock":        true,
	"sync.(*RWMutex).Unlock":      true,
	"sync.(*RWMutex).RLock":       true,
	"sync.(*RWMutex).RUnlock":     true,
	"sync.(*WaitGroup).Add":       true,
	"sync.(*WaitGroup).Done":      true,
	"sync.(*WaitGroup).Wait":      true,
	// dst = binary.LittleEndian.AppendUintN(dst, v) is x = append(x, ...)
	// spelled through the stdlib: amortized growth of the caller's buffer.
	"encoding/binary.(littleEndian).AppendUint32": true,
	"encoding/binary.(littleEndian).AppendUint64": true,
}

type checker struct {
	pass *analysis.Pass
	// cur is the declaration currently being checked.
	cur *ast.FuncDecl
	// decls maps every function object declared in this package to its
	// declaration.
	decls map[*types.Func]*ast.FuncDecl
	// annotated holds the //cogarm:zeroalloc roots (function declarations
	// and interface methods).
	annotated map[*types.Func]bool
	// queued tracks functions scheduled for checking; reason names the
	// annotated root that pulled each transitive callee in.
	queued map[*types.Func]bool
	reason map[*types.Func]string
	list   []*types.Func
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		decls:     map[*types.Func]*ast.FuncDecl{},
		annotated: map[*types.Func]bool{},
		queued:    map[*types.Func]bool{},
		reason:    map[*types.Func]string{},
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				c.decls[fn] = d
				if analysis.HasDirective(d.Doc, "zeroalloc") {
					c.annotated[fn] = true
				}
			case *ast.GenDecl:
				c.collectInterfaceAnnotations(d)
			}
		}
	}

	for fn := range c.annotated {
		pass.ExportObjectFact(fn, &VerifiedFact{})
		d := c.decls[fn]
		switch {
		case d == nil: // interface method
		case d.Body != nil:
			c.enqueue(fn, "")
		case !hasNoescape(d.Doc):
			// An assembly routine is a verified leaf only with //go:noescape:
			// without it the compiler must assume the routine retains its
			// pointer arguments, and moves what they point at to the heap.
			pass.Reportf(fn.Pos(), "zero-alloc function %s has no Go body to verify and is not //go:noescape", funcKey(fn))
		}
	}
	// The queue grows as checking discovers same-package callees.
	for i := 0; i < len(c.list); i++ {
		c.check(c.list[i])
	}
	return nil
}

// collectInterfaceAnnotations marks annotated interface methods: calling
// one from a zero-alloc path is legal, the implementations carry the
// obligation (and are themselves annotated at their declarations).
func (c *checker) collectInterfaceAnnotations(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		for _, m := range it.Methods.List {
			if len(m.Names) == 0 {
				continue
			}
			if analysis.HasDirective(m.Doc, "zeroalloc") || analysis.HasDirective(m.Comment, "zeroalloc") {
				if fn, _ := c.pass.TypesInfo.Defs[m.Names[0]].(*types.Func); fn != nil {
					c.annotated[fn] = true
					c.pass.ExportObjectFact(fn, &VerifiedFact{})
				}
			}
		}
	}
}

// hasNoescape reports whether doc carries the compiler's //go:noescape pragma.
func hasNoescape(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//go:noescape" {
			return true
		}
	}
	return false
}

func (c *checker) enqueue(fn *types.Func, via string) {
	if c.queued[fn] {
		return
	}
	c.queued[fn] = true
	c.reason[fn] = via
	c.list = append(c.list, fn)
	c.pass.ExportObjectFact(fn, &VerifiedFact{})
}

// describe names fn in diagnostics, including how it got onto the
// zero-alloc path if it is not itself annotated.
func (c *checker) describe(fn *types.Func) string {
	key := funcKey(fn)
	if via := c.reason[fn]; via != "" {
		return fmt.Sprintf("%s (on the zero-alloc path via %s)", key, via)
	}
	return key
}

func funcKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return "(" + recvString(recv.Type()) + ")." + fn.Name()
	}
	return fn.Name()
}

func recvString(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		return "*" + recvString(p.Elem())
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func (c *checker) check(fn *types.Func) {
	decl := c.decls[fn] // enqueue is only ever handed a declaration with a body
	where := c.describe(fn)
	info := c.pass.TypesInfo
	c.cur = decl

	analysis.WalkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(info, n); capt != "" {
				c.pass.Reportf(n.Pos(), "closure captures %s and heap-allocates in %s", capt, where)
			}
			return false // the literal's body runs only via a (flagged) dynamic call
		case *ast.CallExpr:
			if obj := builtinOf(info, n.Fun); obj != nil && obj.Name() == "panic" {
				// A panicking tick is fatal, not steady state: the argument
				// (typically fmt.Sprintf for a shape-mismatch message) may
				// allocate freely on its way out.
				return false
			}
			c.checkCall(n, stack, where)
		case *ast.CompositeLit:
			c.checkCompositeLit(n, stack, where)
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := info.Types[n.X]; ok && isString(t.Type) {
					c.pass.Reportf(n.Pos(), "string concatenation allocates in %s", where)
				}
			}
		case *ast.AssignStmt:
			c.checkAssign(n, where)
		case *ast.ReturnStmt:
			c.checkReturn(n, stack, where)
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement allocates a goroutine in %s", where)
		case *ast.DeferStmt:
			if inLoop(stack) {
				c.pass.Reportf(n.Pos(), "defer inside a loop heap-allocates in %s", where)
			}
		case *ast.SelectorExpr:
			c.checkMethodValue(n, stack, where)
		}
		return true
	})
}

// checkCall classifies one call: builtin, conversion, static call, or
// dynamic call, plus interface boxing of its arguments.
func (c *checker) checkCall(call *ast.CallExpr, stack []ast.Node, where string) {
	info := c.pass.TypesInfo

	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type, where)
		return
	}

	// Builtin?
	if obj := builtinOf(info, call.Fun); obj != nil {
		switch obj.Name() {
		case "make":
			c.pass.Reportf(call.Pos(), "make allocates in %s", where)
		case "new":
			c.pass.Reportf(call.Pos(), "new allocates in %s", where)
		case "append":
			c.checkAppend(call, stack, where)
		case "print", "println":
			c.pass.Reportf(call.Pos(), "%s boxes its arguments and allocates in %s", obj.Name(), where)
		}
		return
	}

	callee := analysis.Callee(info, call)
	if callee == nil {
		c.pass.Reportf(call.Pos(), "call through a function value cannot be verified zero-alloc in %s", where)
	} else {
		c.checkCallee(call, callee.(*types.Func), where)
	}
	c.checkArgBoxing(call, where)
}

func (c *checker) checkCallee(call *ast.CallExpr, fn *types.Func, where string) {
	if fn.Pkg() == nil { // unsafe builtins, error.Error, etc.
		return
	}
	// An allowed call site must also stop transitive propagation, not just
	// the message — the waived callee (a cold fallback like tensor.New on
	// the nil-workspace path) is deliberately outside the zero-alloc closure.
	if c.pass.IsAllowed(call.Pos()) {
		return
	}
	// Instantiated generic methods resolve to fresh objects; declarations,
	// annotations, and facts all hang off the generic origin.
	fn = fn.Origin()
	if fn.Pkg() == c.pass.Pkg {
		if c.annotated[fn] || c.queued[fn] {
			return
		}
		if allowed(fn) {
			return
		}
		if d := c.decls[fn]; d != nil && d.Body != nil {
			c.enqueue(fn, where)
			return
		}
		if isInterfaceMethod(fn) {
			c.pass.Reportf(call.Pos(), "call to interface method %s.%s, which is not annotated //cogarm:zeroalloc, in %s",
				fn.Pkg().Name(), funcKey(fn), where)
			return
		}
		c.pass.Reportf(call.Pos(), "call to %s, which has no Go body to verify, in %s", funcKey(fn), where)
		return
	}
	if allowed(fn) {
		return
	}
	if c.pass.ImportObjectFact(fn, &VerifiedFact{}) {
		return
	}
	c.pass.Reportf(call.Pos(), "call to %s.%s, which is not verified zero-alloc (annotate it //cogarm:zeroalloc or allow this site), in %s",
		fn.Pkg().Path(), funcKey(fn), where)
}

func allowed(fn *types.Func) bool {
	if allowPkgs[fn.Pkg().Path()] {
		return true
	}
	return allowFuncs[analysis.CalleeKey(fn)]
}

func isInterfaceMethod(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// checkAppend allows the amortized arena patterns and flags the rest.
func (c *checker) checkAppend(call *ast.CallExpr, stack []ast.Node, where string) {
	if len(call.Args) == 0 {
		return
	}
	dst := appendBase(call.Args[0])
	if len(stack) > 0 {
		switch parent := stack[len(stack)-1].(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) / x = append(x[:0], ...): amortized
			// growth of a reused buffer.
			if len(parent.Lhs) == 1 && analysis.SameChain(c.pass.TypesInfo, parent.Lhs[0], dst) {
				return
			}
		case *ast.ReturnStmt:
			// return append(dst, ...) where dst is a parameter: the
			// caller owns the buffer and its reuse.
			if root, ok := ast.Unparen(dst).(*ast.Ident); ok {
				if v, ok := c.pass.TypesInfo.ObjectOf(root).(*types.Var); ok && c.isParam(v) {
					return
				}
			}
		}
	}
	c.pass.Reportf(call.Pos(), "append outside the x = append(x, ...) reuse pattern allocates in %s", where)
}

// appendBase unwraps append's destination to the reused buffer expression:
// append(x[:0], ...) and append(x[:n], ...) grow x itself.
func appendBase(e ast.Expr) ast.Expr {
	if s, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return s.X
	}
	return e
}

// isParam reports whether v is a parameter of the declaration being
// checked.
func (c *checker) isParam(v *types.Var) bool {
	if c.cur == nil || c.cur.Type.Params == nil {
		return false
	}
	for _, f := range c.cur.Type.Params.List {
		for _, name := range f.Names {
			if c.pass.TypesInfo.Defs[name] == v {
				return true
			}
		}
	}
	return false
}

func (c *checker) checkCompositeLit(lit *ast.CompositeLit, stack []ast.Node, where string) {
	t, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch t.Type.Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "slice literal allocates in %s", where)
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "map literal allocates in %s", where)
	default:
		if len(stack) > 0 {
			if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
				c.pass.Reportf(lit.Pos(), "&composite literal escapes to the heap in %s", where)
			}
		}
	}
}

func (c *checker) checkConversion(call *ast.CallExpr, to types.Type, where string) {
	if len(call.Args) != 1 {
		return
	}
	from, ok := c.pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	switch {
	case isString(to) && !isString(from.Type) && !isUntypedConst(from):
		if isByteOrRuneSlice(from.Type) || isRuneOrByte(from.Type) {
			c.pass.Reportf(call.Pos(), "conversion to string allocates in %s", where)
		}
	case isByteOrRuneSlice(to) && isString(from.Type):
		c.pass.Reportf(call.Pos(), "conversion of string to byte/rune slice allocates in %s", where)
	default:
		c.reportBoxing(call.Pos(), to, from.Type, "conversion", where)
	}
}

// checkArgBoxing flags non-pointer-shaped values passed where the callee
// takes an interface (fmt-style ...any included) — each such argument is a
// heap-allocated box.
func (c *checker) checkArgBoxing(call *ast.CallExpr, where string) {
	info := c.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice boxes nothing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at, ok := info.Types[arg]
		if !ok {
			continue
		}
		c.reportBoxing(arg.Pos(), pt, at.Type, "argument", where)
	}
}

func (c *checker) checkAssign(n *ast.AssignStmt, where string) {
	info := c.pass.TypesInfo
	for i, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t, ok := info.Types[idx.X]; ok {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					c.pass.Reportf(lhs.Pos(), "map write may allocate in %s", where)
				}
			}
		}
		if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
			lt, ok1 := info.Types[lhs]
			rt, ok2 := info.Types[n.Rhs[i]]
			if ok1 && ok2 {
				c.reportBoxing(n.Rhs[i].Pos(), lt.Type, rt.Type, "assignment", where)
			}
		}
	}
}

func (c *checker) checkReturn(n *ast.ReturnStmt, stack []ast.Node, where string) {
	sig := enclosingSignature(c.pass.TypesInfo, stack)
	if sig == nil && c.cur != nil {
		// The walk is rooted at the body, so a top-level return has no
		// FuncDecl on the stack — use the checked function's signature.
		if fn, ok := c.pass.TypesInfo.Defs[c.cur.Name].(*types.Func); ok {
			sig = fn.Type().(*types.Signature)
		}
	}
	if sig == nil || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, res := range n.Results {
		if rt, ok := c.pass.TypesInfo.Types[res]; ok {
			c.reportBoxing(res.Pos(), sig.Results().At(i).Type(), rt.Type, "return", where)
		}
	}
}

// checkMethodValue flags x.M used as a value (not immediately called),
// which materializes a bound-method closure.
func (c *checker) checkMethodValue(sel *ast.SelectorExpr, stack []ast.Node, where string) {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			return
		}
	}
	c.pass.Reportf(sel.Pos(), "method value %s allocates a bound closure in %s", sel.Sel.Name, where)
}

// reportBoxing flags storing a non-pointer-shaped concrete value into an
// interface.
func (c *checker) reportBoxing(pos token.Pos, to, from types.Type, context, where string) {
	if to == nil || from == nil {
		return
	}
	if _, isIface := to.Underlying().(*types.Interface); !isIface {
		return
	}
	if _, isIface := from.Underlying().(*types.Interface); isIface {
		return
	}
	if analysis.IsPointerLike(from) {
		return
	}
	if b, ok := from.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		if b.Kind() == types.UntypedNil {
			return
		}
	}
	c.pass.Reportf(pos, "%s boxes %s into %s and allocates in %s", context, from, to, where)
}

// capturedVar returns the name of a variable the literal captures from an
// enclosing function, or "" if it captures nothing (a static closure).
func capturedVar(info *types.Info, lit *ast.FuncLit) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil {
			return true
		}
		// A variable declared outside the literal but inside some
		// function scope (not package scope) is a capture.
		if v.Pkg() != nil && v.Parent() != v.Pkg().Scope() && !within(lit, v.Pos()) {
			captured = v.Name()
		}
		return true
	})
	return captured
}

func within(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

func builtinOf(info *types.Info, fun ast.Expr) *types.Builtin {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := info.Uses[id].(*types.Builtin)
	return b
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedConst(tv types.TypeAndValue) bool { return tv.Value != nil }

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isRuneOrByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// enclosingSignature finds the signature of the innermost enclosing
// function (decl or literal) on the stack.
func enclosingSignature(info *types.Info, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			if fn, ok := info.Defs[f.Name].(*types.Func); ok {
				return fn.Type().(*types.Signature)
			}
			return nil
		case *ast.FuncLit:
			if tv, ok := info.Types[f]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					return sig
				}
			}
			return nil
		}
	}
	return nil
}

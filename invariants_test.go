package cognitivearm

// The module's two static rules, held by one test over its source
// (ARCHITECTURE.md "Static invariants"):
//
//   - The lock rule. While a sync.Mutex or RWMutex is held, a function must
//     not send, receive or range on a channel, wait in a select with no
//     default, sleep, wait on a WaitGroup or Cond, do I/O (net, os, os/exec,
//     io), or call a module function that does, however deep; nor take a
//     second lock itself. A span ends at the matching unlock in the same
//     statement list (per arm of an if), or at the end of the scope when
//     the unlock is deferred. A function literal is its own scope.
//   - The conversion rule. Outside internal/tensor, no conversion between
//     float32/float64 and int8/int16, either way, named types included.
//
// Every finding must be listed in testdata/locks.golden, by function, lock
// and finding, never by line, with the reason it is safe. A finding reached
// through calls is listed by the call made under the lock and the blocking
// operation its chain ends in, so an edit deeper in the chain does not
// re-key it; its failure message still prints the whole chain. The golden is
// written by hand; there is no -update. An unlisted finding fails, and so
// do a listed finding that no longer occurs and a listed function that no
// longer exists.
//
// What the rules do not see: _test.go files, and calls through an
// interface or a function value, whose callee has no body to summarize.
// shard.tick makes three such calls under s.mu: Source.ReadInto, which must
// not block by contract; the session's SessionConfig.Sink (from
// session.observe), which by the same contract must not block and must not
// call back into the hub (core.Controller's sink takes only its Arduino's
// leaf lock); and the classifier's PredictStreamWS or PredictBatchWS,
// behind which tensor.(*Pool).gemm sends panels on p.tasks and waits on
// c.wg. That rendezvous is sanctioned: pool workers take only the pool's
// leaf free-list lock, never a shard lock, and the caller runs the first
// panel and steals queued ones itself, so nothing it waits for waits on the
// shard.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const locksGolden = "testdata/locks.golden"

// quantPath is the one package that owns quantization arithmetic.
const quantPath = "cognitivearm/internal/tensor"

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }
}

// goList lists every package the module's packages need, dependencies
// first, with the export data of each (it fails if any does not build);
// one run serves every test.
var goList = sync.OnceValues(func() ([]listedPackage, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json", "cognitivearm/...").Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("go list: %v\n%s", err, ee.Stderr)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); err == nil && dec.More(); {
		pkgs = append(pkgs, listedPackage{})
		err = dec.Decode(&pkgs[len(pkgs)-1])
	}
	return pkgs, err
})

// checker type-checks source packages, dependencies first, into one types
// universe: a package checked from source is what its importers get, so a
// module function is one object wherever it is called, and every other
// import comes from gc export data. It runs both rules over each package as
// it is checked.
type checker struct {
	fset      *token.FileSet
	std       types.Importer
	src       map[string]*types.Package
	summaries map[*types.Func]string // why each blocking module function blocks
	findings  []finding
	declared  map[string]bool // every declared function, as the golden spells it

	// The package being checked, and the declaration being scanned.
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	fn    string
}

func newChecker(t *testing.T) *checker {
	t.Helper()
	pkgs, err := goList()
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	c := &checker{fset: token.NewFileSet(), src: map[string]*types.Package{},
		summaries: map[*types.Func]string{}, declared: map[string]bool{}}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	return c
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.src[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// finding is one rule violation: where, in which declared function, the
// message, and the key the golden lists it by (the lock and the finding, or
// the conversion; no position).
type finding struct {
	pos token.Position
	fn  string // "<package dir>.<func>", as the golden spells it
	key string
	msg string
}

// pkgDir is how a golden names a package: its directory in the module.
func pkgDir(path string) string { return strings.TrimPrefix(path, "cognitivearm/") }

func (c *checker) report(pos token.Pos, key, msg string) {
	c.findings = append(c.findings, finding{pos: c.fset.Position(pos), fn: c.fn, key: key, msg: msg})
}

// check parses and type-checks the named files as the package at path, and
// runs both rules over it.
func (c *checker) check(t *testing.T, path string, filenames []string) {
	t.Helper()
	c.files = nil
	c.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(c.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		c.files = append(c.files, f)
	}
	var err error
	cfg := types.Config{Importer: c, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	if c.pkg, err = cfg.Check(path, c.fset, c.files, c.info); err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	c.src[path] = c.pkg

	// Blocking summaries, to a fixpoint within the package: a function
	// blocks if its body holds a blocking construct or calls a function
	// already known to block. Declaration order keeps each reason chain the
	// same from run to run, and every package a function calls into was
	// settled before this one.
	var decls []*ast.FuncDecl
	for _, f := range c.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn := c.info.Defs[fd.Name].(*types.Func)
			if _, done := c.summaries[fn]; done {
				continue
			}
			var reason string
			c.findBlocking(fd.Body, func(_ token.Pos, why string) {
				if reason == "" {
					reason = why
				}
			})
			if reason != "" {
				c.summaries[fn] = reason
				changed = true
			}
		}
	}

	c.declared[pkgDir(path)+".init"] = true
	for _, f := range c.files {
		for _, d := range f.Decls {
			c.fn = pkgDir(path) + ".init" // a package-level initializer runs in init
			if fd, ok := d.(*ast.FuncDecl); ok {
				c.fn = pkgDir(path) + "." + declName(fd)
				c.declared[c.fn] = true
				if fd.Body != nil {
					c.scanList(fd.Body.List, nil)
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							c.scanList(lit.Body.List, nil)
						}
						return true
					})
				}
			}
			if path != quantPath {
				ast.Inspect(d, c.conversion)
			}
		}
	}
}

// The lock rule.

// leafBlockers are standard-library calls that block by themselves.
var leafBlockers = map[string]string{
	"time.Sleep":             "sleeps",
	"sync.(*WaitGroup).Wait": "waits on a WaitGroup",
	"sync.(*Cond).Wait":      "waits on a Cond",
}

// nonBlockingOS are os calls that touch only the process's own state.
var nonBlockingOS = map[string]bool{
	"os.Getenv": true, "os.LookupEnv": true, "os.Environ": true,
	"os.Getpid": true, "os.Getppid": true, "os.Getuid": true, "os.Geteuid": true,
	"os.Getgid": true, "os.Getegid": true, "os.Getpagesize": true,
	"os.IsNotExist": true, "os.IsExist": true, "os.IsPermission": true,
	"os.IsTimeout": true, "os.IsPathSeparator": true, "os.TempDir": true,
}

func blockingPkg(path string) bool {
	return path == "net" || strings.HasPrefix(path, "net/") || path == "os" || path == "os/exec" || path == "io"
}

// callee resolves the function or method a call statically invokes, or nil
// for a function value, a builtin or a conversion.
func (c *checker) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr: // pkg.Fn, x.Method, T.Method
		id = fun.Sel
	}
	fn, _ := c.info.Uses[id].(*types.Func)
	return fn
}

// calleeKey renders a function as "pkgpath.Fn", "pkgpath.(T).M" or
// "pkgpath.(*T).M".
func calleeKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name = "(" + recvKey(recv.Type()) + ")." + name
	}
	return fn.Pkg().Path() + "." + name
}

func recvKey(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return "*" + recvKey(p.Elem())
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// namedBase is the named type at the core of t, through a pointer, or nil.
func namedBase(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// callReason returns why calling call would block, or "".
func (c *checker) callReason(call *ast.CallExpr) string {
	fn := c.callee(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	fn = fn.Origin() // summaries hang off the generic origin
	if fn.Pkg() == c.pkg {
		if why, ok := c.summaries[fn]; ok {
			return fmt.Sprintf("calls %s, which %s", fn.Name(), why)
		}
		return ""
	}
	key := calleeKey(fn)
	if why, ok := leafBlockers[key]; ok {
		return why
	}
	path := fn.Pkg().Path()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		// An interface method says nothing by itself: hash.Hash64 promotes
		// io.Writer.Write but writes to memory. Attribute the call to the
		// package that declared the interface the receiver is typed as:
		// io.Closer is I/O, hash.Hash64 is not.
		path = ""
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if n := namedBase(c.info.TypeOf(sel.X)); n != nil && n.Obj().Pkg() != nil {
				path = n.Obj().Pkg().Path()
			}
		}
	}
	if blockingPkg(path) && !nonBlockingOS[key] {
		return fmt.Sprintf("performs I/O (%s)", key)
	}
	// Summaries exist for module functions only. The standard library's
	// own chains bottom out in runtime scheduling (a malloc can start a GC
	// cycle that signals its workers over a channel); the tables above
	// stand in for it.
	if why, ok := c.summaries[fn]; ok {
		return fmt.Sprintf("calls %s, which %s", key, why)
	}
	return ""
}

// findBlocking reports every blocking construct in n, skipping function
// literals and go statements, whose bodies run outside this goroutine's
// locks.
func (c *checker) findBlocking(n ast.Node, report func(token.Pos, string)) {
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			report(x.Arrow, "sends on a channel")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				report(x.OpPos, "receives from a channel")
			}
		case *ast.RangeStmt:
			if isChan(c.info.TypeOf(x.X)) {
				report(x.For, "ranges over a channel")
			}
		case *ast.SelectStmt:
			if !hasDefault(x) {
				report(x.Select, "waits in a select with no default")
			}
			// The clause bodies still run here; the comm operations are
			// covered by the select-level report, or do not block when a
			// default exists.
			for _, cl := range x.Body.List {
				for _, st := range cl.(*ast.CommClause).Body {
					ast.Inspect(st, walk)
				}
			}
			return false
		case *ast.CallExpr:
			if why := c.callReason(x); why != "" {
				report(x.Lparen, why)
			}
		}
		return true
	}
	ast.Inspect(n, walk)
}

func isChan(t types.Type) bool { _, ok := t.Underlying().(*types.Chan); return ok }

func hasDefault(s *ast.SelectStmt) bool {
	return slices.ContainsFunc(s.Body.List, func(cl ast.Stmt) bool { return cl.(*ast.CommClause).Comm == nil })
}

// isChain reports whether e is an identifier or selector chain (x, x.f,
// x.f.g): the only lock expressions the rule follows.
func isChain(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isChain(e.X)
	}
	return false
}

// sameChain reports whether a and b are the same chain: the same root
// object and the same field selections, as the type checker resolved them.
func (c *checker) sameChain(a, b ast.Expr) bool {
	switch a := ast.Unparen(a).(type) {
	case *ast.Ident:
		b, ok := ast.Unparen(b).(*ast.Ident)
		return ok && c.info.ObjectOf(a) != nil && c.info.ObjectOf(a) == c.info.ObjectOf(b)
	case *ast.SelectorExpr:
		b, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && c.sameChain(a.Sel, b.Sel) && c.sameChain(a.X, b.X)
	}
	return false
}

// lockOp recognizes x.Lock(), RLock(), Unlock() and RUnlock() on a
// sync.Mutex or RWMutex named by a chain, and returns the chain.
func (c *checker) lockOp(call *ast.CallExpr) (chain ast.Expr, lock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := c.callee(call)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || !isChain(sel.X) {
		return nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, false
	}
	switch namedBase(recv.Type()).Obj().Name() + "." + fn.Name() {
	case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock":
		return sel.X, true
	case "Mutex.Unlock", "RWMutex.Unlock", "RWMutex.RUnlock":
		return sel.X, false
	}
	return nil, false
}

type heldLock struct {
	expr ast.Expr
	pos  token.Pos
}

// scanList walks a statement list tracking which locks are held. A nested
// block gets a copy of the held set, so an unlock on one arm of an if
// releases the lock for that arm only.
func (c *checker) scanList(list []ast.Stmt, held []heldLock) {
	held = slices.Clone(held)
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if chain, lock := c.lockOp(call); chain != nil {
					if lock {
						c.reportNested(call, chain, held)
						held = append(held, heldLock{chain, call.Pos()})
					} else {
						held = c.release(held, chain)
					}
					continue
				}
			}
			c.checkHeld(held, s)
		case *ast.DeferStmt:
			if chain, lock := c.lockOp(s.Call); chain != nil && !lock {
				continue // the lock stays held to the end of the scope
			}
			c.checkHeld(held, s.Call)
		case *ast.BlockStmt:
			c.scanList(s.List, held)
		case *ast.IfStmt:
			c.checkHeld(held, s.Init, s.Cond)
			c.scanList(s.Body.List, held)
			if s.Else != nil {
				c.scanList([]ast.Stmt{s.Else}, held)
			}
		case *ast.ForStmt:
			c.checkHeld(held, s.Init, s.Cond, s.Post)
			c.scanList(s.Body.List, held)
		case *ast.RangeStmt:
			if len(held) > 0 && isChan(c.info.TypeOf(s.X)) {
				c.reportHeld(s.For, "ranges over a channel", held)
			}
			c.checkHeld(held, s.X)
			c.scanList(s.Body.List, held)
		case *ast.SelectStmt:
			if len(held) > 0 && !hasDefault(s) {
				c.reportHeld(s.Select, "waits in a select with no default", held)
			}
			for _, cl := range s.Body.List {
				c.scanList(cl.(*ast.CommClause).Body, held)
			}
		case *ast.SwitchStmt:
			c.checkHeld(held, s.Init, s.Tag)
			for _, cl := range s.Body.List {
				cc := cl.(*ast.CaseClause)
				for _, e := range cc.List {
					c.checkHeld(held, e)
				}
				c.scanList(cc.Body, held)
			}
		case *ast.TypeSwitchStmt:
			for _, cl := range s.Body.List {
				c.scanList(cl.(*ast.CaseClause).Body, held)
			}
		case *ast.LabeledStmt:
			c.scanList([]ast.Stmt{s.Stmt}, held)
		case *ast.GoStmt:
			// Spawning does not block, and the goroutine holds none of
			// this goroutine's locks.
		default:
			c.checkHeld(held, stmt)
		}
	}
}

// checkHeld reports the blocking constructs in nodes while a lock is held.
func (c *checker) checkHeld(held []heldLock, nodes ...ast.Node) {
	for _, n := range nodes {
		if len(held) > 0 && n != nil {
			c.findBlocking(n, func(pos token.Pos, why string) { c.reportHeld(pos, why, held) })
		}
	}
}

func (c *checker) reportHeld(pos token.Pos, why string, held []heldLock) {
	h := held[len(held)-1]
	lock := types.ExprString(h.expr)
	c.report(pos, lock+": "+chainKey(why), fmt.Sprintf("%s while %s is held (locked at %s)", why, lock, c.fset.Position(h.pos)))
}

// chainKey is how the golden lists a reason: a chain of calls by its first
// link and its last, "calls a, which calls b, which sleeps" as
// "calls a … sleeps"; any other reason as it is.
func chainKey(why string) string {
	first, rest, ok := strings.Cut(why, ", which ")
	if !ok {
		return why
	}
	if i := strings.LastIndex(rest, ", which "); i >= 0 {
		rest = rest[i+len(", which "):]
	}
	return first + " … " + rest
}

// reportNested reports taking a lock while another is held.
func (c *checker) reportNested(call *ast.CallExpr, chain ast.Expr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	lock := types.ExprString(chain)
	for _, h := range held {
		if c.sameChain(h.expr, chain) {
			c.report(call.Pos(), lock+": re-acquires "+lock,
				fmt.Sprintf("re-acquires %s, already held (locked at %s) — self-deadlock", lock, c.fset.Position(h.pos)))
			return
		}
	}
	h := held[len(held)-1]
	outer := types.ExprString(h.expr)
	c.report(call.Pos(), outer+": acquires "+lock,
		fmt.Sprintf("acquires %s while %s is held (locked at %s) — nested locks risk deadlock; keep critical sections leaf-only",
			lock, outer, c.fset.Position(h.pos)))
}

// release drops the most recent held entry for chain. An unlock of a lock
// not held here (a release on one path) is ignored.
func (c *checker) release(held []heldLock, chain ast.Expr) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if c.sameChain(held[i].expr, chain) {
			return slices.Delete(held, i, i+1)
		}
	}
	return held
}

// The conversion rule.

func (c *checker) conversion(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return true
	}
	tv, ok := c.info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return true
	}
	// An untyped constant operand has no basic kind of its own here:
	// int8(1.0) is compile-time arithmetic, not a quantization step.
	dst, src := basicKind(tv.Type), basicKind(c.info.TypeOf(call.Args[0]))
	if quantInt(dst) && floatKind(src) || floatKind(dst) && quantInt(src) {
		from := types.TypeString(c.info.TypeOf(call.Args[0]), types.RelativeTo(c.pkg))
		to := types.TypeString(tv.Type, types.RelativeTo(c.pkg))
		c.report(call.Pos(), from+"→"+to+" conversion",
			fmt.Sprintf("%s→%s conversion outside %s: quantization arithmetic (scale, rounding, clamp) belongs to the tensor kernels (QMatrix/I16Map) so the registry's agreement gate covers it",
				from, to, quantPath))
	}
	return true
}

func basicKind(t types.Type) types.BasicKind {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}

func quantInt(k types.BasicKind) bool  { return k == types.Int8 || k == types.Int16 }
func floatKind(k types.BasicKind) bool { return k == types.Float32 || k == types.Float64 }

// compareGolden returns one line for each difference between the findings
// and the golden; declared holds every function the module declares, as
// the golden spells it.
func compareGolden(golden []*goldenFunc, findings []finding, declared map[string]bool) []string {
	var errs, listed []string
	for _, g := range golden {
		fn := g.pkg + "." + g.name
		if !declared[fn] {
			errs = append(errs, fmt.Sprintf("%s is listed in %s but no longer exists", fn, locksGolden))
		}
		for _, key := range g.listed {
			listed = append(listed, fn+" "+key)
		}
	}
	extra, stale := unmatched(listed, findings, func(f finding) string { return f.fn + " " + f.key })
	for _, f := range extra {
		errs = append(errs, fmt.Sprintf("%s: %s\n\tnot listed in %s: fix it, or list it under %s as %q with the reason it is safe",
			f.pos, f.msg, locksGolden, f.fn, f.key))
	}
	for _, entry := range stale {
		fn, key, _ := strings.Cut(entry, " ")
		errs = append(errs, fmt.Sprintf("%s: listed finding %q no longer occurs; delete it from %s", fn, key, locksGolden))
	}
	return errs
}

// TestInvariants holds both rules over the whole module against
// testdata/locks.golden.
func TestInvariants(t *testing.T) {
	c := newChecker(t)
	pkgs, _ := goList()
	for _, lp := range pkgs {
		if lp.Module != nil && lp.Module.Main {
			var names []string
			for _, f := range lp.GoFiles {
				names = append(names, filepath.Join(lp.Dir, f))
			}
			c.check(t, lp.ImportPath, names)
		}
	}
	for _, e := range compareGolden(parseGolden(t, locksGolden), c.findings, c.declared) {
		t.Error(e)
	}
}

// TestInvariantFixtures runs each rule over its fixture packages under
// testdata/invariants, whose import paths are their directories under
// cognitivearm/, and matches every finding with a `// want` comment on its
// line, and every want with a finding. The tensor stub sits at the real
// tensor path and converts freely: the exemption must hold.
func TestInvariantFixtures(t *testing.T) {
	for _, set := range []struct {
		name  string
		paths []string
	}{
		{"nolockblock", []string{"cognitivearm/nlbfix/b", "cognitivearm/nlbfix/a"}},
		{"quantsafe", []string{quantPath, "cognitivearm/qsfix"}},
	} {
		t.Run(set.name, func(t *testing.T) { checkFixtures(t, set.paths) })
	}
}

// checkFixtures checks the fixture packages at paths, dependencies first,
// in one checker and matches their findings with their wants.
func checkFixtures(t *testing.T, paths []string) {
	c := newChecker(t)
	want := map[string][]*regexp.Regexp{}
	for _, path := range paths {
		dir := filepath.Join("testdata/invariants", pkgDir(path))
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("fixture %s: %v", dir, err)
		}
		c.check(t, path, names)
		for _, f := range c.files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if lit, ok := strings.CutPrefix(cm.Text, "// want "); ok {
						at := c.fset.Position(cm.Pos())
						pattern, err := strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: want a quoted regexp: %v", at, err)
						}
						line := fmt.Sprintf("%s:%d", at.Filename, at.Line)
						want[line] = append(want[line], regexp.MustCompile(pattern))
					}
				}
			}
		}
	}
	for _, f := range c.findings {
		line := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
		i := slices.IndexFunc(want[line], func(re *regexp.Regexp) bool { return re.MatchString(f.msg) })
		if i < 0 {
			t.Errorf("%s: unexpected finding: %s", f.pos, f.msg)
			continue
		}
		want[line] = slices.Delete(want[line], i, i+1)
	}
	for line, res := range want {
		for _, re := range res {
			t.Errorf("%s: no finding matches %q", line, re)
		}
	}
}

// TestChainKey: a chain keys by its first link and its last, however long.
func TestChainKey(t *testing.T) {
	for why, want := range map[string]string{
		"sleeps":                   "sleeps",
		"performs I/O (os.Remove)": "performs I/O (os.Remove)",
		"calls a, which sleeps":    "calls a … sleeps",
		"calls a, which calls b, which calls c, which performs I/O (io.(Writer).Write)": "calls a … performs I/O (io.(Writer).Write)",
	} {
		if got := chainKey(why); got != want {
			t.Errorf("chainKey(%q) = %q, want %q", why, got, want)
		}
	}
}

// TestCompareGolden: a listed finding that occurs passes, as often as it
// is listed; an unlisted one, a listed one that no longer occurs and a
// listed function that no longer exists each fail.
func TestCompareGolden(t *testing.T) {
	golden := []*goldenFunc{{pkg: "internal/x", name: "(*T).Flush", listed: []string{"t.mu: sleeps", "t.mu: sleeps"}}}
	declared := map[string]bool{"internal/x.(*T).Flush": true, "internal/x.Other": true}
	sleep := finding{fn: "internal/x.(*T).Flush", key: "t.mu: sleeps"}
	other := finding{fn: "internal/x.Other", key: "o.mu: acquires p.mu"}
	gone := append([]*goldenFunc{{pkg: "internal/x", name: "gone"}}, golden...)
	for _, tc := range []struct {
		golden   []*goldenFunc
		findings []finding
		want     string // what the one error says, or "" for none
	}{
		{golden, []finding{sleep, sleep}, ""},
		{golden, []finding{sleep, sleep, sleep}, `list it under internal/x.(*T).Flush as "t.mu: sleeps"`},
		{golden, []finding{sleep}, `internal/x.(*T).Flush: listed finding "t.mu: sleeps" no longer occurs`},
		{golden, []finding{sleep, other, sleep}, `list it under internal/x.Other as "o.mu: acquires p.mu"`},
		{gone, []finding{sleep, sleep}, "internal/x.gone is listed in testdata/locks.golden but no longer exists"},
	} {
		errs := compareGolden(tc.golden, tc.findings, declared)
		if tc.want == "" && len(errs) != 0 || tc.want != "" && (len(errs) != 1 || !strings.Contains(errs[0], tc.want)) {
			t.Errorf("%d findings: got %q, want %q", len(tc.findings), errs, tc.want)
		}
	}
}

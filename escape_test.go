package cognitivearm

// The serving path's allocation contract, held by the compiler: every
// function listed in testdata/escape.golden may heap-allocate only at the
// escape sites listed under it, each with the reason it is not steady
// state. The golden is written by hand (there is no -update): an escape it
// does not list, a listed escape that no longer occurs and a listed function
// that no longer exists all fail. Escape analysis sees one function at a
// time, so an allocating callee behind a call is not an escape here; the
// warm-path testing.AllocsPerRun tests measure that half.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const escapeGolden = "testdata/escape.golden"

// goldenFunc is one function a golden lists: the messages it may produce (a
// message listed twice may occur twice), each written with its reason.
type goldenFunc struct {
	pkg, name string
	listed    []string
}

// parseGolden reads the grammar testdata/escape.golden and
// testdata/locks.golden share: a function line is "<package dir>.<func>"
// (methods as "(*T).M" or "T.M"); each indented line below it is
// "<message> -- <reason>"; '#' starts a comment line.
func parseGolden(t *testing.T, path string) []*goldenFunc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*goldenFunc
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if trimmed != line {
			msg, reason, ok := strings.Cut(trimmed, " -- ")
			if len(funcs) == 0 || !ok || strings.TrimSpace(reason) == "" {
				t.Fatalf("%s:%d: want an indented \"<message> -- <reason>\" under a function", path, i+1)
			}
			f := funcs[len(funcs)-1]
			f.listed = append(f.listed, msg)
			continue
		}
		slash := strings.LastIndex(line, "/")
		dot := strings.Index(line[slash+1:], ".")
		if slash < 0 || dot < 0 {
			t.Fatalf("%s:%d: want \"<package dir>.<func>\", got %q", path, i+1, line)
		}
		if seen[line] {
			t.Fatalf("%s:%d: %s listed twice", path, i+1, line)
		}
		seen[line] = true
		funcs = append(funcs, &goldenFunc{pkg: line[:slash+1+dot], name: line[slash+2+dot:]})
	}
	return funcs
}

// unmatched pairs what was observed with what is listed, by key and
// counting multiplicity, and returns the observations left over and the
// listed keys that did not occur.
func unmatched[T any](listed []string, observed []T, key func(T) string) (extra []T, stale []string) {
	left := map[string]int{}
	for _, msg := range listed {
		left[msg]++
	}
	for _, o := range observed {
		k := key(o)
		if left[k]--; left[k] < 0 {
			extra = append(extra, o)
		}
	}
	for _, msg := range listed {
		if left[msg] > 0 {
			left[msg]--
			stale = append(stale, msg)
		}
	}
	return extra, stale
}

// span is a half-open source range, compared as (line, column).
type span struct{ from, to token.Position }

func (s span) holds(line, col int) bool {
	after := line > s.from.Line || line == s.from.Line && col >= s.from.Column
	before := line < s.to.Line || line == s.to.Line && col < s.to.Column
	return after && before
}

// funcDecl is a function declaration and the panic(...) calls inside it,
// whose arguments are exempt: a panicking tick is fatal, not steady state.
type funcDecl struct {
	file   string
	body   span
	panics []span
}

// declName spells a declaration the way the golden does.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fd.Name.Name
}

// packageDecls parses the files of dir that build for this GOOS/GOARCH.
func packageDecls(t *testing.T, dir string) map[string]*funcDecl {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]*funcDecl{}
	fset := token.NewFileSet()
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			t.Fatal(err)
		} else if !ok {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decl := &funcDecl{file: path, body: span{fset.Position(fd.Pos()), fset.Position(fd.End())}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						decl.panics = append(decl.panics, span{fset.Position(call.Lparen), fset.Position(call.Rparen)})
					}
				}
				return true
			})
			decls[declName(fd)] = decl
		}
	}
	return decls
}

// escapeLine matches the -m diagnostics that are heap allocations.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.* escapes to heap|moved to heap: .*)$`)

// isConstString reports whether an escaping expression is a string constant:
// -m reports an inlined helper's constant panic message at its caller, and
// a constant converted to an interface is static data, not an allocation.
func isConstString(msg string) bool {
	expr, ok := strings.CutSuffix(msg, " escapes to heap")
	if !ok {
		return false
	}
	_, err := strconv.Unquote(expr)
	return err == nil
}

func TestEscapeGolden(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("the escape golden holds for linux/amd64; this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	golden := parseGolden(t, escapeGolden)

	var pkgs []string
	decls := map[string]map[string]*funcDecl{}
	for _, f := range golden {
		if decls[f.pkg] == nil {
			decls[f.pkg] = packageDecls(t, f.pkg)
			pkgs = append(pkgs, "./"+f.pkg)
		}
	}

	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, stderr.String())
	}

	// Each escape outside a panic argument, by the listed function whose
	// body holds it.
	type site struct{ pos, msg string }
	observed := map[string][]site{}
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		m := escapeLine.FindStringSubmatch(sc.Text())
		if m == nil || isConstString(m[4]) {
			continue
		}
		file := filepath.Clean(m[1])
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, f := range golden {
			d := decls[f.pkg][f.name]
			if d == nil || d.file != file || !d.body.holds(line, col) {
				continue
			}
			if !slices.ContainsFunc(d.panics, func(s span) bool { return s.holds(line, col) }) {
				key := f.pkg + "." + f.name
				observed[key] = append(observed[key], site{file + ":" + m[2], m[4]})
			}
			break
		}
	}

	for _, f := range golden {
		key := f.pkg + "." + f.name
		if decls[f.pkg][f.name] == nil {
			t.Errorf("%s is listed in %s but no longer exists", key, escapeGolden)
			continue
		}
		extra, stale := unmatched(f.listed, observed[key], func(s site) string { return s.msg })
		for _, s := range extra {
			t.Errorf("%s: %s, in %s, is not listed in %s", s.pos, s.msg, key, escapeGolden)
		}
		for _, msg := range stale {
			t.Errorf("%s: listed escape %q no longer occurs; delete it from %s", key, msg, escapeGolden)
		}
	}
}

package vapro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProductionCallsEveryExport fails when an exported name is reached
// only by tests. Production is every non-test .go file outside bench/;
// cmd/ and examples/ count as callers. A name that production does not
// reach must be deleted or carry a line in testdata/deadguard.txt giving
// one of three reasons; a line whose name production reaches, or that
// names nothing, fails too, so the list can only shrink.
func TestProductionCallsEveryExport(t *testing.T) {
	allow, err := readAllowList("testdata/deadguard.txt")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale, err := deadExports(".", allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		t.Errorf("%s: exported, but no production code reaches it: delete it", name)
	}
	for _, name := range stale {
		t.Errorf("%s: stale allow-list line: production reaches it, or it is gone", name)
	}
}

// allowReasons are the only reasons an allow-list line may give.
var allowReasons = []string{
	"bench",     // bench/ compiles against it (ROADMAP item 1)
	"reference", // a test reference or seam tests compare against or inject through
	"alias",     // a root-package alias naming a value the public API returns
}

// readAllowList reads "name reason: words" lines; # starts a comment.
func readAllowList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		kind, _, _ := strings.Cut(reason, ":")
		switch {
		case !slices.Contains(allowReasons, kind):
			return nil, fmt.Errorf("%s:%d: %s: reason must start with one of %v", path, n, name, allowReasons)
		case kind == "bench" && !strings.Contains(reason, "ROADMAP item 1"):
			return nil, fmt.Errorf("%s:%d: %s: a bench line names ROADMAP item 1", path, n, name)
		case allow[name] != "":
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// deadExports type-checks the production files of the module rooted at
// root. It returns, sorted, the exported package-level names and methods
// declared outside bench/ and internal/faults that no live production
// declaration references, and the allow-listed names that production
// reaches or that name nothing.
//
// Liveness spreads from the roots — main, init, blank declarations and
// internal/faults, the test-support package whose non-test files are
// production callers — along the references in each declaration, so a
// name used only inside dead code is dead too. A method is also live
// when its receiver type is and it implements a method of an interface
// declared in production or of error, fmt.Stringer, flag.Value,
// json.Marshaler, json.Unmarshaler or http.Handler; a constant that is
// its type's zero value is live with its type, since every zero value
// holds it. Allow-listed names are kept on purpose, so what they reach
// is live as well.
func deadExports(root string, allow map[string]string) (dead, stale []string, err error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		root:   root,
		mod:    mod,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		busy:   map[string]bool{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		ifaces: []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	var paths []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		name := d.Name()
		if rel == "bench" || name == "testdata" || (rel != "." && (name[0] == '.' || name[0] == '_')) {
			return filepath.SkipDir
		}
		paths = append(paths, importPath(mod, rel))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return nil, nil, err
		}
	}
	dead, stale = l.dead(allow)
	return dead, stale, nil
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
}

func importPath(mod, rel string) string {
	if rel == "." {
		return mod
	}
	return mod + "/" + filepath.ToSlash(rel)
}

// stdInterfaces are the stdlib interfaces, by package, whose methods a
// production type implements for a stdlib caller; error is the other.
var stdInterfaces = map[string][]string{
	"flag":          {"Value"},
	"fmt":           {"Stringer"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"net/http":      {"Handler"},
}

// loader type-checks the module's production packages on demand,
// handing the importer the packages it has already checked.
type loader struct {
	fset   *token.FileSet
	root   string
	mod    string
	std    types.Importer
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	busy   map[string]bool
	info   *types.Info
	ifaces []*types.Interface
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		for _, name := range stdInterfaces[path] {
			l.ifaces = append(l.ifaces, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
		}
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.busy[path] = true
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !tn.IsAlias() {
				l.ifaces = append(l.ifaces, it)
			}
		}
	}
	return pkg, nil
}

// decl is one package-level declaration: its name as the allow-list
// spells it, what it references, and for a method, its receiver's type.
type decl struct {
	name string
	refs []types.Object
	recv *types.TypeName
	root bool
}

func (l *loader) dead(allow map[string]string) (dead, stale []string) {
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]*types.Func{}
	zeros := map[*types.TypeName][]*types.Const{} // constants equal to their type's zero value
	for path, files := range l.files {
		faults := path == l.mod+"/internal/faults"
		isMain := l.pkgs[path].Name() == "main"
		add := func(o types.Object, d *decl) {
			d.name = path + "." + o.Name()
			if d.recv != nil {
				d.name = path + "." + d.recv.Name() + "." + o.Name()
			}
			d.root = d.root || faults || o.Name() == "_"
			decls[o] = d
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := l.info.Defs[d.Name].(*types.Func)
					dc := &decl{refs: l.refsIn(d.Type, d.Body)}
					if d.Recv == nil {
						dc.root = d.Name.Name == "init" || isMain && d.Name.Name == "main"
					} else if dc.recv = recvType(fn); dc.recv != nil {
						methods[dc.recv] = append(methods[dc.recv], fn)
					}
					add(fn, dc)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(l.info.Defs[s.Name], &decl{refs: l.refsIn(s)})
						case *ast.ValueSpec:
							refs := l.refsIn(s)
							for _, n := range s.Names {
								o := l.info.Defs[n]
								add(o, &decl{refs: refs})
								if c, ok := o.(*types.Const); ok && c.Val().Kind() == constant.Int && constant.Sign(c.Val()) == 0 {
									if t, ok := c.Type().(*types.Named); ok {
										zeros[t.Obj()] = append(zeros[t.Obj()], c)
									}
								}
							}
						}
					}
				}
			}
		}
	}

	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if _, ok := decls[o]; ok && !live[o] {
			live[o] = true
			work = append(work, o)
		}
	}
	spread := func() {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range decls[o].refs {
				mark(r)
			}
			if tn, ok := o.(*types.TypeName); ok {
				for _, m := range methods[tn] {
					if l.implements(m) {
						mark(m)
					}
				}
				for _, c := range zeros[tn] {
					mark(c)
				}
			}
		}
	}
	byName := map[string]types.Object{}
	for o, d := range decls {
		byName[d.name] = o
		if d.root {
			mark(o)
		}
	}
	spread()
	for name := range allow {
		if o := byName[name]; o == nil || live[o] {
			stale = append(stale, name)
		} else {
			mark(o)
		}
	}
	spread()
	for o, d := range decls {
		if !live[o] && o.Exported() && o.Pkg().Path() != l.mod+"/internal/faults" {
			dead = append(dead, d.name)
		}
	}
	slices.Sort(dead)
	slices.Sort(stale)
	return dead, stale
}

// refsIn returns the package-level objects and methods the nodes use.
func (l *loader) refsIn(nodes ...ast.Node) []types.Object {
	var refs []types.Object
	for _, n := range nodes {
		if n == nil || n == (*ast.BlockStmt)(nil) {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch o := l.info.Uses[id].(type) {
				case *types.Func:
					refs = append(refs, o.Origin())
				case *types.TypeName, *types.Const, *types.Var:
					refs = append(refs, o)
				}
			}
			return true
		})
	}
	return refs
}

// recvType is the named type a method is declared on.
func recvType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// implements reports whether m has the name and signature of a method
// of a known interface.
func (l *loader) implements(m *types.Func) bool {
	for _, it := range l.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			if im.Name() == m.Name() && (m.Exported() || im.Pkg() == m.Pkg()) && types.Identical(im.Type(), m.Type()) {
				return true
			}
		}
	}
	return false
}

// TestDeadExportsFixture runs the guard over a module written for it:
// a name only a test calls is dead, and so is a name only dead code
// calls; a name production calls, and a method implementing a
// production interface, are live; an allow-list line naming a live name
// or nothing is stale, and a line with an unknown reason is refused.
func TestDeadExportsFixture(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"main.go": `package main

import "fixture/lib"

func main() {
	var n lib.Namer = lib.Thing{}
	println(n.Name(), lib.Used(), lib.Kept())
}
`,
		"lib/lib.go": `package lib

type Namer interface{ Name() string }

type Thing struct{}

func (Thing) Name() string { return "thing" }

func Used() int { return 1 }

func Kept() int { return 2 }

func TestOnly() int { return 3 }

func DeadCaller() int { return Callee() }

func Callee() int { return 4 }
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) { TestOnly() }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"fixture/lib.Kept": "reference: production calls it now",
		"fixture/lib.Gone": "reference: names nothing",
	}
	dead, stale, err := deadExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture/lib.Callee", "fixture/lib.DeadCaller", "fixture/lib.TestOnly"}; !slices.Equal(dead, want) {
		t.Errorf("dead %v, want %v", dead, want)
	}
	if want := []string{"fixture/lib.Gone", "fixture/lib.Kept"}; !slices.Equal(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}

	for list, ok := range map[string]bool{
		"fixture/lib.TestOnly reference: the fixture's seam\n":            true,
		"fixture/lib.TestOnly bench: compiled against (ROADMAP item 1)\n": true,
		"fixture/lib.TestOnly bench: compiled against\n":                  false,
		"fixture/lib.TestOnly unused: nobody calls it\n":                  false,
		"fixture/lib.TestOnly\n":                                          false,
	} {
		path := filepath.Join(root, "allow.txt")
		if err := os.WriteFile(path, []byte(list), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllowList(path); (err == nil) != ok {
			t.Errorf("allow-list %q: error %v, want accepted=%v", list, err, ok)
		}
	}
}

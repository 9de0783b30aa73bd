package catfish_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllow lists the exported names under internal/ that no non-test file
// uses and that stay exported anyway, each with its reason. A key is
// "pkg.Name" or "pkg.Type.Method".
var exportAllow = map[string]string{
	"adaptive.Choice.String":        "fmt.Stringer: names a switch choice in formatted output and test failures",
	"geo.Rect.String":               "fmt.Stringer: prints a rectangle in formatted output and test failures",
	"stats.Summary.String":          "fmt.Stringer: prints a latency summary in formatted output",
	"stats.Table.String":            "fmt.Stringer: catfish-bench prints every table with fmt.Println",
	"replica.GapError.Error":        "error: the gap a backup reports to its primary",
	"shard.UnhealthyError.Error":    "error: the write a router refuses for an unhealthy owner",
	"shard.UnhealthyError.Unwrap":   "error: lets errors.Is match the wrapped cause",
	"btree.Tree.Get":                "reference lookup the btree and proto tests check the offloaded B+-tree walk against",
	"proto.Ops.Move":                "single-server MOVE the client and kv tests drive; production MOVEs go through shard.Core",
	"region.Mailbox.Granted":        "live slot count the region and client tests assert returns to zero",
	"replica.State.Applied":         "applied sequence number the replica and proto tests assert on",
	"rpcnet.Server.Kill":            "crash injection the rpcnet tests use to kill a primary mid-workload",
	"rtree.Tree.CheckInvariants":    "structural check the rtree, server, proto, client, rpcnet, scenario and root tests run after writes",
	"server.Server.PauseHeartbeats": "liveness fault injection the rpcnet and shard tests use",
	"server.Server.Tree":            "the tree behind a sim server that the server and rpcnet tests compare answers with",
	"shard.Core.ExecBatch":          "router batch entry the shard and rpcnet tests drive on both transports",
	"sim.Queue.Len":                 "non-blocking queue read the sim and fabric tests observe delivery with",
	"sim.Queue.TryPop":              "non-blocking queue read the sim and fabric tests observe delivery with",
	"wire.BatchEncoder.Count":       "op count the wire and rpcnet batch tests assert on",
}

// TestExportsHaveProductionCallers fails on an exported package-level name or
// method under internal/ that no non-test file uses, unless it implements an
// interface the module declares or exportAllow keeps it with a reason.
func TestExportsHaveProductionCallers(t *testing.T) {
	for _, p := range unusedExports(t, ".", exportAllow) {
		t.Error(p)
	}
}

// unusedExports type-checks every non-test package of the module rooted at
// root and returns one problem per exported internal/ name without a
// production caller, and per allow entry that is gone or now has one.
func unusedExports(t *testing.T, root string, allow map[string]string) []string {
	t.Helper()
	l := loadModule(t, root)
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		if l.recv[id] {
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	var ifaces []*types.Interface
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implements := func(named *types.Named, method string) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var problems []string
	seen := map[string]bool{}
	check := func(key string, obj types.Object) {
		seen[key] = true
		_, allowed := allow[key]
		switch {
		case used[obj] && allowed:
			problems = append(problems, fmt.Sprintf("%s has a production caller: remove it from the allow-list", key))
		case !used[obj] && !allowed:
			problems = append(problems, fmt.Sprintf("%s (%s) has no production caller: delete it, unexport it or move it into a _test.go file", key, l.fset.Position(obj.Pos())))
		}
	}
	for path, pkg := range l.pkgs {
		if !strings.Contains(path+"/", "/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(pkg.Name()+"."+name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implements(named, m.Name()) {
					check(pkg.Name()+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("%s is on the allow-list but is not an exported name any more", key))
		}
	}
	sort.Strings(problems)
	return problems
}

// moduleLoader type-checks a module's packages from source: file lists from
// go/build, the standard library through the "source" importer.
type moduleLoader struct {
	t    *testing.T
	root string
	mod  string
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package
	// recv holds the type names in method receivers: a type that only its
	// own methods name has no caller.
	recv map[*ast.Ident]bool
}

func loadModule(t *testing.T, root string) *moduleLoader {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	mod := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(gomod), "\n", 2)[0], "module"))
	fset := token.NewFileSet()
	l := &moduleLoader{
		t: t, root: root, mod: mod, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{},
		recv: map[*ast.Ident]bool{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		if _, err := build.ImportDir(path, 0); err == nil {
			l.Import(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						l.recv[id] = true
					}
					return true
				})
			}
		}
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// TestExportsFailOnFixtures shows the export check failing when it should:
// an exported function and a method that only a test calls, an allow-list
// entry whose name is gone, and one whose name has a production caller.
func TestExportsFailOnFixtures(t *testing.T) {
	got := unusedExports(t, "testdata/exports", map[string]string{
		"a.Box.Spare": "kept on purpose",
		"a.Gone":      "deleted since",
		"a.Used":      "called by main since",
	})
	want := []string{
		"a.Gone is on the allow-list but is not an exported name any more",
		"a.OnlyTested (testdata/exports/internal/a/a.go:8:6) has no production caller: delete it, unexport it or move it into a _test.go file",
		"a.Used has a production caller: remove it from the allow-list",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := unusedExports(t, "testdata/exports", nil); len(got) != 2 || !strings.HasPrefix(got[0], "a.Box.Spare ") {
		t.Errorf("without an allow-list: %q, want a.Box.Spare and a.OnlyTested", got)
	}
}

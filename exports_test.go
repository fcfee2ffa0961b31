package evedge_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// uncalledKept lists the exported declarations under internal/ that no
// non-test file names and that stay anyway (rule 1 of
// TestInternalExportsHaveCallers), each with its reason: functions,
// types, consts and vars keyed "pkg.Name", methods "pkg.Recv.Method".
var uncalledKept = map[string]string{
	"hw.Platform.MustDevice":             "test fixture: device lookup by name that panics",
	"sparse.FromDense":                   "test oracle: dense-to-sparse round trip of Frame.DenseInto",
	"sparse.Tensor.FillRandom":           "test fixture: random dense kernel inputs",
	"sparse.Tensor.FillRandomSparse":     "test fixture: random sparse kernel inputs",
	"sparse.Tensor.ReLU":                 "test oracle: the reference forward pass's activation",
	"scene.GenerateUniform":              "test fixture: uniform random event streams",
	"nn.Network.CheckShapes":             "the zoo shape check the nn tests run on every network",
	"dsfa.Batch.FrameCount":              "test observer: raw frames merged into a batch",
	"pipeline.Stepper.AggConfig":         "test observer: the live aggregator tuning",
	"obs.Tracer.Tracks":                  "test observer: the tracer's lane names",
	"serve.Server.SessionJournalStats":   "test observer: a session's journal counters",
	"nn.Runtime.InputLayerIDs":           "test observer: the runtime's input layers",
	"perf.Model.NetworkTimeUS":           "test observer: whole-network cost-model time",
	"perf.Model.InputCommUS":             "test observer: cost-model input transfer time",
	"e2sf.Fused.ConvertByCount":          "test observer: count framing into fresh frames",
	"events.ReadText":                    "reads what evtrace -text writes",
	"par.Scratch.GrowI32":                "kernel library that ROADMAP item 3 decides on numbers",
	"par.Scratch.GrowF32":                "kernel library that ROADMAP item 3 decides on numbers",
	"sparse.ActiveSet.BuildFromTensor":   "rulebook.go, which ROADMAP item 3 decides on numbers",
	"sparse.ActiveSet.Refine":            "rulebook.go, which ROADMAP item 3 decides on numbers",
	"sparse.SubmanifoldConv2DSitesTiled": "tiled kernel that ROADMAP item 3 decides on numbers",
	"quant.MSE":                          "error metric the parked quantized-kernel item needs",
	"quant.SQNR":                         "error metric the parked quantized-kernel item needs",
	"nn.FrameByTime":                     "zero value of FramingMode: DOTIE and the other time-framed networks leave Framing unset",
}

// fieldsKept lists the option fields that no non-test file outside
// their declaring package sets and that stay anyway (rule 2 of
// TestInternalExportsHaveCallers), keyed "pkg.Struct.Field", each with
// its reason.
var fieldsKept = map[string]string{
	"experiments.Config.Quick": "DefaultConfig and QuickConfig set it; evbench -quick chooses between the two",
	"experiments.Config.Scale": "DefaultConfig and QuickConfig set it; evbench -quick chooses between the two",
}

// TestInternalExportsHaveCallers keeps code and options nothing uses
// from piling up. Only non-test files of the module and of bench/
// count, under three rules:
//
//  1. Every exported function, method, type, const or var declared
//     under internal/ is named by some file other than its own
//     declaration, or is listed in uncalledKept.
//  2. Every exported field of an exported struct type under internal/
//     whose name ends in Config or Opts is written — a composite-literal
//     key, an assignment, ++/--, or &x.F — by some file outside its
//     declaring package, or is listed in fieldsKept. A field with a
//     json tag leaves the process and is exempt.
//  3. Every name declared in evedge.go is named as evedge.Name by a
//     file under cmd/, examples/ or bench/, or appears in the signature
//     of an evedge.go function that this rule keeps. Nothing is kept
//     otherwise.
//
// Rules 1 and 3 match by name, so a name collision can hide an unused
// declaration but never flags a used one. Rule 2 resolves every write
// with go/types against the compiled export data of the packages, so
// same-named fields of different structs stay apart.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	refs := map[string]int{}
	facade := map[string]*ast.FuncDecl{} // evedge.go's names; funcs keep their decl
	facadeRefs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		internal := strings.HasPrefix(p, "internal/")
		pkg := path.Base(path.Dir(p))
		names := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident, key string) {
			names[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{key, id.Name, fset.Position(id.Pos()).String()})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				key := pkg + "."
				if dl.Recv != nil {
					key += recvName(dl.Recv.List[0].Type) + "."
				}
				declare(dl.Name, key+dl.Name.Name)
				if p == "evedge.go" {
					facade[dl.Name.Name] = dl
				}
			case *ast.GenDecl:
				for _, s := range dl.Specs {
					var ids []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					}
					for _, id := range ids {
						declare(id, pkg+"."+id.Name)
						if p == "evedge.go" {
							facade[id.Name] = nil
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name]++
			}
			return true
		})
		if strings.HasPrefix(p, "cmd/") || strings.HasPrefix(p, "examples/") || strings.HasPrefix(p, "bench/") {
			for name := range facadeNames(f) {
				facadeRefs[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	unused := map[string]bool{}
	for _, d := range decls {
		if refs[d.name] > 0 {
			continue
		}
		unused[d.key] = true
		if _, ok := uncalledKept[d.key]; !ok {
			t.Errorf("%s (%s): no non-test file names it; delete it, or list it in uncalledKept with a reason", d.key, d.pos)
		}
	}
	checkKept(t, "uncalledKept", uncalledKept, unused, "is gone or has a caller now")

	// Rule 3: a function the facade keeps keeps the names its signature uses.
	for name, fn := range facade {
		if fn == nil || !facadeRefs[name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				facadeRefs[n.Name] = true
			}
			return true
		})
	}
	for _, name := range sortedKeys(facade) {
		if !facadeRefs[name] {
			t.Errorf("evedge.%s: no file under cmd/, examples/ or bench/ names it and no kept facade signature uses it; delete it", name)
		}
	}

	unwritten := unwrittenOptionFields(t)
	found := map[string]bool{}
	for _, key := range sortedKeys(unwritten) {
		found[key] = true
		if _, ok := fieldsKept[key]; !ok {
			t.Errorf("%s (%s): no non-test file outside its package sets it; make it a constant, or list it in fieldsKept with a reason", key, unwritten[key])
		}
	}
	checkKept(t, "fieldsKept", fieldsKept, found, "is gone or is set from outside its package now")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkKept reports each entry of a kept list that no longer names a
// finding.
func checkKept(t *testing.T, list string, kept map[string]string, found map[string]bool, why string) {
	t.Helper()
	for _, k := range sortedKeys(kept) {
		if !found[k] {
			t.Errorf("%s lists %s, which %s; drop the entry", list, k, why)
		}
	}
}

// facadeNames returns the names f selects from the root package,
// under whatever name f imports it.
func facadeNames(f *ast.File) map[string]bool {
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"evedge"` {
			local = "evedge"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	names := map[string]bool{}
	if local == "" {
		return names
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				names[sel.Sel.Name] = true
			}
		}
		return true
	})
	return names
}

// unwrittenOptionFields type-checks every non-test file of the module
// and of bench/ and returns the option fields of rule 2 that no file
// outside their declaring package writes, as "pkg.Struct.Field" →
// "file:line" of its declaration. Imports come from the compiled
// export data that `go list -export` reports, which records no
// columns, so a field is identified by the file, line and name of its
// declaration.
func unwrittenOptionFields(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	fieldKey := func(obj types.Object) string {
		pos := fset.Position(obj.Pos())
		return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, obj.Name())
	}
	options := map[string]string{}              // field key → "pkg.Struct.Field"
	writtenFrom := map[string]map[string]bool{} // field key → dirs of the packages writing it

	for _, module := range []string{".", "bench"} {
		pkgs, imp := listPackages(t, fset, module)
		for _, pkg := range pkgs {
			var files []*ast.File
			for _, name := range pkg.files {
				f, err := parser.ParseFile(fset, filepath.Join(pkg.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			tpkg, err := (&types.Config{Importer: imp}).Check(pkg.path, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", pkg.path, err)
			}
			if strings.HasPrefix(pkg.path, "evedge/internal/") {
				for _, name := range tpkg.Scope().Names() {
					tn, ok := tpkg.Scope().Lookup(name).(*types.TypeName)
					if !ok || !tn.Exported() || tn.IsAlias() ||
						!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts")) {
						continue
					}
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if fv := st.Field(i); fv.Exported() && reflect.StructTag(st.Tag(i)).Get("json") == "" {
							options[fieldKey(fv)] = tpkg.Name() + "." + name + "." + fv.Name()
						}
					}
				}
			}
			record := func(id *ast.Ident) {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					k := fieldKey(v)
					if writtenFrom[k] == nil {
						writtenFrom[k] = map[string]bool{}
					}
					writtenFrom[k][pkg.dir] = true
				}
			}
			selected := func(x ast.Expr) {
				if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
					record(sel.Sel)
				}
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							record(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							selected(lhs)
						}
					case *ast.IncDecStmt:
						selected(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							selected(n.X)
						}
					}
					return true
				})
			}
		}
	}

	unwritten := map[string]string{}
	for k, name := range options {
		file := k[:strings.Index(k, ":")]
		outside := false
		for dir := range writtenFrom[k] {
			outside = outside || dir != filepath.Dir(file)
		}
		if !outside {
			unwritten[name] = k[:strings.LastIndex(k, ":")]
		}
	}
	return unwritten
}

// listedPackage is one package of a module: its import path, directory
// and non-test files.
type listedPackage struct {
	path, dir string
	files     []string
}

// listPackages runs one `go list -export -deps` in a module's directory
// and returns the module's own packages and an importer that reads the
// export data of everything they import.
func listPackages(t *testing.T, fset *token.FileSet, module string) ([]listedPackage, types.Importer) {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.DepOnly}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = module
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", module, err, stderr.String())
	}
	exports := map[string]string{}
	var pkgs []listedPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("go list line %q", line)
		}
		exports[f[0]] = f[1]
		if f[2] == "false" {
			pkgs = append(pkgs, listedPackage{path: f[0], dir: f[3], files: strings.Fields(f[4])})
		}
	}
	return pkgs, importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

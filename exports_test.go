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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// uncalledKept lists the exported declarations under internal/ that no
// non-test file uses and that stay anyway (rule 1 of
// TestInternalExportsHaveCallers), each with its reason: functions,
// types, consts and vars keyed "pkg.Name", methods "pkg.Recv.Method".
var uncalledKept = map[string]string{
	"hw.Platform.MustDevice":           "test fixture: device lookup by name that panics",
	"sparse.FromDense":                 "test oracle: dense-to-sparse round trip of Frame.DenseInto",
	"sparse.Tensor.FillRandom":         "test fixture: random dense kernel inputs",
	"sparse.Tensor.FillRandomSparse":   "test fixture: random sparse kernel inputs",
	"sparse.Tensor.ReLU":               "test oracle: the reference forward pass's activation",
	"scene.GenerateUniform":            "test fixture: uniform random event streams",
	"nn.Network.CheckShapes":           "the zoo shape check the nn tests run on every network",
	"pipeline.Stepper.AggConfig":       "test observer: the live aggregator tuning",
	"obs.Tracer.Tracks":                "test observer: the tracer's lane names",
	"cluster.Cluster.Journal":          "test observer: a fleet session's journal and the replica entries the live nodes hold for it, which the harness's schedule explorer checks",
	"nn.Runtime.InputLayerIDs":         "test observer: the runtime's input layers",
	"perf.Model.NetworkTimeUS":         "test observer: whole-network cost-model time",
	"perf.Model.InputCommUS":           "test observer: cost-model input transfer time",
	"e2sf.Framer.Tail":                 "test observer: the events a framer keeps, which the e2sf and serve tests bound to one run or window",
	"events.ReadText":                  "reads what evtrace -text writes",
	"par.Scratch.GrowI32":              "kernel library that ROADMAP item 3 decides on numbers",
	"par.Scratch.GrowF32":              "kernel library that ROADMAP item 3 decides on numbers",
	"sparse.ActiveSet.BuildFromTensor": "builds the exact site set the Sites-kernel tests and serve's submanifold_sites alloc row run on; ROADMAP item 3(b) decides it with the rulebook",
	"sparse.SubmanifoldConv2DSites":    "the rulebook-driven submanifold kernel its tests and serve's submanifold_sites alloc row run; ROADMAP item 3(b) decides it with the rulebook",
	"sparse.ActiveSet.Refine":          "rulebook.go, which ROADMAP item 3 decides on numbers",
	"quant.MSE":                        "error metric the parked quantized-kernel item needs",
	"quant.SQNR":                       "error metric the parked quantized-kernel item needs",
	"nn.FrameByTime":                   "zero value of FramingMode: DOTIE and the other time-framed networks leave Framing unset",
	"dsfa.CAverage":                    "the paper's cAverage combine mode: a Config.Mode the aggregator merges by, run by the dsfa tests and the serve alloc smoke",
	"quant.QuantizeINT8":               "numerics the parked quantized-kernel item needs",
	"quant.DequantizeINT8":             "numerics the parked quantized-kernel item needs",
	"quant.RoundFP16":                  "numerics the parked quantized-kernel item needs",
	"hw.Engine.Timeline":               "bench binding: bench/pump_layers.go calls NewEngine(p, false); ROADMAP item 4(d) re-points it so the record mode can go",
	"serve.Client.Session":             "test fixture: reads one session over HTTP in the serve and cluster tests",
	"serve.Client.Sessions":            "test fixture: lists the sessions over HTTP in the cluster tests",
	"sparse.Frame.Clone":               "test fixture: copies frames in the dsfa and sparse tests",
	"sparse.Frame.Get":                 "test oracle: one cell of a frame in the dsfa, e2sf and sparse tests",
	"sparse.Frame.Validate":            "test oracle: the frame invariants the e2sf and sparse tests check",
	"sparse.Tensor.NNZ":                "test oracle: the nonzero count the e2sf, nn and sparse tests check",
}

// fieldsKept lists the struct fields that rule 2 or rule 4 of
// TestInternalExportsHaveCallers reports and that stay anyway, keyed
// "pkg.Struct.Field", each with its reason.
var fieldsKept = map[string]string{
	"e2sf.Stats.Frames":         "bench binding: Fused.ConvertByCountAppend and ConvertGroupedAppend return Stats and bench/ takes all three results; ROADMAP item 4-II drops Stats from the signatures, and the field with it",
	"experiments.Config.Quick":  "DefaultConfig and QuickConfig set it; evbench -quick chooses between the two",
	"experiments.Config.Scale":  "DefaultConfig and QuickConfig set it; evbench -quick chooses between the two",
	"serve.JournalStats.AckSeq": "test observer: the ack watermark the harness's schedule explorer bounds a replica log's chunk entries by",
	"hw.Span.Tag":               "bench binding: the record mode's span label; ROADMAP item 4(d) re-points NewEngine so it can go",
	"sched.Config.Virtual":      "bench binding: bench/pump_layers.go sets it and Pump is the only driver, so nothing reads it; ROADMAP item 4-II drops the binding so it can go",
	"sparse.Site.X":             "bench binding: Tensor.ActiveSites returns sites, bench/infer_layers.go counts them (ROADMAP item 4)",
	"sparse.Site.Y":             "bench binding: Tensor.ActiveSites returns sites, bench/infer_layers.go counts them (ROADMAP item 4)",
}

// TestInternalExportsHaveCallers keeps code, options and results
// nothing uses from piling up. Only non-test files of the module and of
// bench/ count, under four rules:
//
//  1. Every exported function, method, type, const or var declared
//     under internal/ is used by some non-test file outside its own
//     declaration (a method's receiver does not use its type), or is
//     listed in uncalledKept. A method also counts as used when its
//     type implements an interface whose method of that name a
//     non-test file calls, or an interface of the standard library.
//     A constant of a defined type does not count as used where it
//     is only compared against: a case expression, or an operand of
//     == or !=.
//  2. Every exported field of an exported struct type under internal/
//     whose name ends in Config or Opts is written — a composite-literal
//     key, an assignment, ++/--, or &x.F — by some file outside its
//     declaring package, or is listed in fieldsKept.
//  3. Every name declared in the root package (evedge.go) is used by a
//     file under cmd/, examples/ or bench/, or appears in the signature
//     of a root function that this rule keeps. Nothing is kept
//     otherwise.
//  4. Every exported, non-embedded field of an exported struct type
//     under internal/ is read by some non-test file, or is listed in
//     fieldsKept. A read is any use other than a composite-literal key,
//     the left side of an assignment (=, := or an op= such as +=) or
//     the operand of ++/--: a counter only ever bumped is not read. A
//     struct type read whole is exempt:
//     a map key or an operand of == or != (a comparison reads every
//     field), or a value that encoding/json encodes.
//
// Rules 2 and 4 exempt fields with a json tag: they leave the process.
// Every rule resolves names with go/types over one type-check of the
// packages (see scanExports), so a declaration is never hidden by
// another of the same name.
func TestInternalExportsHaveCallers(t *testing.T) {
	scan := scanExports(t, ".", ".", "bench")
	reportFindings(t, scan.uncalled, uncalledKept,
		"no non-test file uses it; delete it, or list it in uncalledKept with a reason")
	checkKept(t, "uncalledKept", uncalledKept, scan.uncalled, "is gone or has a user now")

	for _, key := range sortedKeys(scan.facade) {
		t.Errorf("%s (%s): no file under cmd/, examples/ or bench/ uses it and no kept facade signature does; delete it", key, scan.facade[key])
	}

	reportFindings(t, scan.unwritten, fieldsKept,
		"no non-test file outside its package sets it; make it a constant, or list it in fieldsKept with a reason")
	reportFindings(t, scan.unread, fieldsKept,
		"no non-test file reads it; delete it with the code that computes it, or list it in fieldsKept with a reason")
	fields := maps.Clone(scan.unwritten)
	maps.Copy(fields, scan.unread)
	checkKept(t, "fieldsKept", fieldsKept, fields, "is gone, set from outside its package or read now")
}

// TestExportsGateFixture runs the gate's scan over the small module in
// testdata/exportsgate, whose comments say what each rule must and must
// not report.
func TestExportsGateFixture(t *testing.T) {
	scan := scanExports(t, filepath.Join("testdata", "exportsgate"), ".")
	for _, c := range []struct {
		rule string
		got  map[string]string
		want []string
	}{
		{"1", scan.uncalled, []string{"a.Dead.Run", "a.Slow"}},
		{"2", scan.unwritten, nil},
		{"3", scan.facade, nil},
		{"4", scan.unread, []string{"a.Stats.Bumped", "a.Stats.Hidden"}},
	} {
		if got := sortedKeys(c.got); !reflect.DeepEqual(got, c.want) && len(got)+len(c.want) > 0 {
			t.Errorf("rule %s reports %q, want %q", c.rule, got, c.want)
		}
	}
}

// reportFindings fails the test for each finding its kept list does not
// name.
func reportFindings(t *testing.T, found, kept map[string]string, advice string) {
	t.Helper()
	for _, key := range sortedKeys(found) {
		if _, ok := kept[key]; !ok {
			t.Errorf("%s (%s): %s", key, found[key], advice)
		}
	}
}

// checkKept reports each entry of a kept list that no longer names a
// finding.
func checkKept(t *testing.T, list string, kept, found map[string]string, why string) {
	t.Helper()
	for _, k := range sortedKeys(kept) {
		if _, ok := found[k]; !ok {
			t.Errorf("%s lists %s, which %s; drop the entry", list, k, why)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exportsScan is what scanExports finds, per rule of
// TestInternalExportsHaveCallers: each map goes from a finding's key
// ("pkg.Name", "pkg.Recv.Method" or "pkg.Struct.Field") to the
// position of its declaration.
type exportsScan struct {
	uncalled  map[string]string // rule 1
	unwritten map[string]string // rule 2
	facade    map[string]string // rule 3
	unread    map[string]string // rule 4
}

// scanPackage is one type-checked package of a scanned module.
type scanPackage struct {
	path string // import path
	rel  string // directory, slash-separated and relative to the root
	pkg  *types.Package
	info *types.Info
	// files are the package's non-test files.
	files []*ast.File
}

// scanExports type-checks the given modules of the tree at root (see
// typeCheck) and applies the four rules of
// TestInternalExportsHaveCallers to their non-test files.
func scanExports(t *testing.T, root string, modules ...string) exportsScan {
	t.Helper()
	absRoot, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs := typeCheck(t, fset, absRoot, modules)
	ours := map[string]bool{}
	var facadePkg *scanPackage
	for _, sp := range pkgs {
		ours[sp.path] = true
		if sp.rel == "." {
			facadePkg = sp
		}
	}
	pos := func(p token.Pos) string {
		position := fset.Position(p)
		if rel, err := filepath.Rel(absRoot, position.Filename); err == nil {
			position.Filename = filepath.ToSlash(rel)
		}
		return position.String()
	}
	internal := func(sp *scanPackage) bool { return strings.HasPrefix(sp.rel, "internal/") }

	// Declarations of rules 1 and 3, with the source span that does not
	// count as a use of them, and the receiver types of methods.
	type decl struct {
		key        string
		start, end token.Pos
	}
	decls := map[types.Object]decl{}    // rule 1
	facade := map[types.Object]string{} // rule 3: key
	facadeFuncs := map[*types.Func]*ast.FuncType{}
	receivers := map[*ast.Ident]bool{}
	var methods []*types.Func
	// Fields of rules 2 and 4.
	type field struct {
		key   string
		owner types.Type // the struct type declaring it
	}
	options := map[*types.Var]string{}
	results := map[*types.Var]field{}
	for _, sp := range pkgs {
		rule1, rule3 := internal(sp), sp == facadePkg
		if !rule1 && !rule3 {
			continue
		}
		name := sp.pkg.Name() + "."
		declare := func(id *ast.Ident, key string, node ast.Node) {
			obj := sp.info.Defs[id]
			switch {
			case !id.IsExported() || obj == nil:
			case rule1:
				decls[obj] = decl{key, node.Pos(), node.End()}
			case rule3:
				facade[obj] = key
			}
		}
		for _, f := range sp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						declare(d.Name, name+d.Name.Name, d)
						if fn, ok := sp.info.Defs[d.Name].(*types.Func); ok && rule3 {
							facadeFuncs[fn] = d.Type
						}
						continue
					}
					fn, _ := sp.info.Defs[d.Name].(*types.Func)
					named := receiverNamed(fn)
					if named == nil {
						continue
					}
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && sp.info.Uses[id] == named.Obj() {
							receivers[id] = true
						}
						return true
					})
					declare(d.Name, name+named.Obj().Name()+"."+d.Name.Name, d)
					if rule1 && d.Name.IsExported() {
						methods = append(methods, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, name+s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								declare(id, name+id.Name, s)
							}
						}
					}
				}
			}
		}
		if !rule1 {
			continue
		}
		for _, n := range sp.pkg.Scope().Names() {
			tn, ok := sp.pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			option := strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Opts")
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				if !fv.Exported() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
					continue
				}
				key := name + n + "." + fv.Name()
				if option {
					options[fv] = key
				}
				if !fv.Embedded() {
					results[fv] = field{key, tn.Type()}
				}
			}
		}
	}

	// One walk over every non-test file: who uses what, who writes and
	// reads which field, which interface methods are called.
	used := map[types.Object]bool{}
	facadeUsed := map[types.Object]bool{}
	read := map[*types.Var]bool{}
	writtenFrom := map[*types.Var]map[string]bool{} // field → packages writing it
	var called []ifaceMethod
	seenCalled := map[*types.Func]bool{}
	// wholeRead holds the types a non-test file reads whole, every
	// field at once: by comparing a value (a map key, an operand of ==
	// or !=), or by encoding it with encoding/json, which also follows
	// pointers, slices and maps.
	wholeRead := map[types.Type]bool{}
	type visit struct {
		t       types.Type
		encoded bool
	}
	visited := map[visit]bool{}
	var readWhole func(types.Type, bool)
	readWhole = func(tt types.Type, encoded bool) {
		tt = types.Unalias(tt)
		if tt == nil || visited[visit{tt, encoded}] {
			return
		}
		visited[visit{tt, encoded}] = true
		wholeRead[tt] = true
		switch u := tt.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				readWhole(u.Field(i).Type(), encoded)
			}
		case *types.Array:
			readWhole(u.Elem(), encoded)
		case *types.Pointer:
			if encoded {
				readWhole(u.Elem(), encoded)
			}
		case *types.Slice:
			if encoded {
				readWhole(u.Elem(), encoded)
			}
		case *types.Map:
			if encoded {
				readWhole(u.Key(), encoded)
				readWhole(u.Elem(), encoded)
			}
		}
	}
	for _, sp := range pkgs {
		facadeUser := sp.rel == "bench" || strings.HasPrefix(sp.rel, "bench/") ||
			strings.HasPrefix(sp.rel, "cmd/") || strings.HasPrefix(sp.rel, "examples/")
		notRead := map[*ast.Ident]bool{}  // composite-literal keys, left sides of assignments, ++/-- operands
		writes := map[*ast.Ident]bool{}   // every write of rule 2
		compared := map[*ast.Ident]bool{} // case expressions, operands of == and !=
		compare := func(x ast.Expr) {
			switch x := ast.Unparen(x).(type) {
			case *ast.Ident:
				compared[x] = true
			case *ast.SelectorExpr:
				compared[x.Sel] = true
			}
		}
		selected := func(x ast.Expr, assign bool) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
				notRead[sel.Sel] = notRead[sel.Sel] || assign
			}
		}
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := sp.info.Uses[id].(*types.Var); ok && v.IsField() {
									writes[id], notRead[id] = true, true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs, true)
					}
				case *ast.IncDecStmt:
					selected(n.X, true)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X, false)
					}
				case *ast.MapType:
					readWhole(sp.info.TypeOf(n.Key), false)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readWhole(sp.info.TypeOf(n.X), false)
						readWhole(sp.info.TypeOf(n.Y), false)
						compare(n.X)
						compare(n.Y)
					}
				case *ast.CaseClause:
					for _, x := range n.List {
						compare(x)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if fn, ok := sp.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
							for _, arg := range n.Args {
								readWhole(sp.info.TypeOf(arg), true)
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range sp.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
				if !o.IsField() {
					break
				}
				v := o.Origin()
				if !notRead[id] {
					read[v] = true
				}
				if writes[id] {
					if writtenFrom[v] == nil {
						writtenFrom[v] = map[string]bool{}
					}
					writtenFrom[v][sp.path] = true
				}
			}
			// Comparing against a constant of a defined type builds no
			// value of it, so that use alone does not keep it.
			onlyCompared := compared[id] && definedConst(obj)
			if d, ok := decls[obj]; ok && !receivers[id] && !onlyCompared && (id.Pos() < d.start || id.Pos() >= d.end) {
				used[obj] = true
			}
			if _, ok := facade[obj]; ok && facadeUser {
				facadeUsed[obj] = true
			}
		}
		for _, sel := range sp.info.Selections {
			fn, ok := sel.Obj().(*types.Func)
			if !ok || seenCalled[fn] {
				continue
			}
			seenCalled[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called = append(called, ifaceMethod{iface, fn.Name()})
				}
			}
		}
	}
	called = append(called, stdlibInterfaceMethods(pkgs, ours)...)
	for _, fn := range methods {
		if used[fn] {
			continue
		}
		named := receiverNamed(fn)
		for _, c := range called {
			if c.name == fn.Name() && (types.Implements(named, c.iface) || types.Implements(types.NewPointer(named), c.iface)) {
				used[fn] = true
				break
			}
		}
	}

	scan := exportsScan{map[string]string{}, map[string]string{}, map[string]string{}, map[string]string{}}
	for obj, d := range decls {
		if !used[obj] {
			scan.uncalled[d.key] = pos(obj.Pos())
		}
	}
	// Rule 3: a function the facade keeps keeps the names its signature uses.
	for fn, ft := range facadeFuncs {
		if !facadeUsed[fn] {
			continue
		}
		ast.Inspect(ft, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := facadePkg.info.Uses[id]; obj != nil {
					facadeUsed[obj] = true
				}
			}
			return true
		})
	}
	for obj, key := range facade {
		if !facadeUsed[obj] {
			scan.facade[key] = pos(obj.Pos())
		}
	}
	for v, key := range options {
		outside := false
		for p := range writtenFrom[v] {
			outside = outside || p != v.Pkg().Path()
		}
		if !outside {
			scan.unwritten[key] = pos(v.Pos())
		}
	}
	for v, f := range results {
		if !read[v] && !wholeRead[f.owner] {
			scan.unread[f.key] = pos(v.Pos())
		}
	}
	return scan
}

// typeCheck type-checks every non-test file of the given modules
// (directories under root; a later module may import an earlier one)
// and returns their packages in dependency order. The packages of the
// modules are checked from source and import one another's checked
// packages, so every use resolves to the one object it names; the
// standard library comes from the export data that `go list -export`
// reports.
func typeCheck(t *testing.T, fset *token.FileSet, root string, modules []string) []*scanPackage {
	t.Helper()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		return gc.Import(p)
	})
	var pkgs []*scanPackage
	for _, module := range modules {
		for _, lp := range listPackages(t, filepath.Join(root, module), exports) {
			if _, ok := checked[lp.path]; ok {
				continue
			}
			rel, err := filepath.Rel(root, lp.dir)
			if err != nil {
				t.Fatal(err)
			}
			sp := &scanPackage{path: lp.path, rel: filepath.ToSlash(rel), info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			for _, name := range lp.files {
				f, err := parser.ParseFile(fset, filepath.Join(lp.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				sp.files = append(sp.files, f)
			}
			sp.pkg, err = (&types.Config{Importer: imp}).Check(lp.path, fset, sp.files, sp.info)
			if err != nil {
				t.Fatalf("type-check %s: %v", lp.path, err)
			}
			checked[lp.path] = sp.pkg
			pkgs = append(pkgs, sp)
		}
	}
	return pkgs
}

// ifaceMethod is a method of an interface that something calls.
type ifaceMethod struct {
	iface *types.Interface
	name  string
}

// stdlibInterfaceMethods returns every method of the exported
// interfaces of the packages outside ours that pkgs import: the
// standard library calls them (fmt a String, net/http a ServeHTTP).
func stdlibInterfaceMethods(pkgs []*scanPackage, ours map[string]bool) []ifaceMethod {
	var out []ifaceMethod
	seen := map[*types.Package]bool{}
	for _, sp := range pkgs {
		for _, p := range sp.pkg.Imports() {
			if ours[p.Path()] || seen[p] {
				continue
			}
			seen[p] = true
			for _, n := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(n).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						out = append(out, ifaceMethod{iface, iface.Method(i).Name()})
					}
				}
			}
		}
	}
	return out
}

// receiverNamed is the named type of a method's receiver, T for both
// T and *T, or nil for a function.
func receiverNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	tt := recv.Type()
	if p, ok := tt.(*types.Pointer); ok {
		tt = p.Elem()
	}
	named, _ := tt.(*types.Named)
	return named
}

// definedConst reports whether obj is a constant of a defined type.
func definedConst(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	_, named := types.Unalias(c.Type()).(*types.Named)
	return named
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// listedPackage is one package of a module: its import path, directory
// and non-test files.
type listedPackage struct {
	path, dir string
	files     []string
}

// listPackages runs one `go list -export -deps` in a module's
// directory, adds the export data file of every package it lists to
// exports, and returns the module's own packages in dependency order.
func listPackages(t *testing.T, module string, exports map[string]string) []listedPackage {
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
	var pkgs []listedPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			t.Fatalf("go list line %q", line)
		}
		if _, ok := exports[f[0]]; !ok {
			exports[f[0]] = f[1]
		}
		if f[2] == "false" {
			pkgs = append(pkgs, listedPackage{path: f[0], dir: f[3], files: strings.Fields(f[4])})
		}
	}
	return pkgs
}

package evedge_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledKept lists the exported functions and methods under internal/
// that no program calls and that stay anyway, keyed "pkg.Func" or
// "pkg.Recv.Method", each with its reason.
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
}

// TestInternalExportsHaveCallers keeps code nothing runs from piling
// up: every exported function or method declared in a non-test file
// under internal/ must be referenced by name from a non-test file of
// the module or of bench/ — its own declaration aside — or be listed
// in uncalledKept. Matching is by name alone, so a name collision can
// hide an uncalled declaration but never flags a called one.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	refs := map[string]int{}
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
		names := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if strings.HasPrefix(p, "internal/") && fn.Name.IsExported() {
				key := path.Base(path.Dir(p)) + "."
				if fn.Recv != nil {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	uncalled := map[string]bool{}
	for _, d := range decls {
		if refs[d.name] > 0 {
			continue
		}
		uncalled[d.key] = true
		if _, ok := uncalledKept[d.key]; !ok {
			t.Errorf("%s (%s): no non-test file references it; delete it, or list it in uncalledKept with a reason", d.key, d.pos)
		}
	}
	kept := make([]string, 0, len(uncalledKept))
	for k := range uncalledKept {
		kept = append(kept, k)
	}
	sort.Strings(kept)
	for _, k := range kept {
		if !uncalled[k] {
			t.Errorf("uncalledKept lists %s, which is gone or has a caller now; drop the entry", k)
		}
	}
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

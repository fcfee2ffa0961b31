package evedge_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestFuzzCorporaHaveTargets: go test ignores a seed corpus under
// testdata/fuzz/<Name> whose fuzz target is gone, without a word, so
// deleting or renaming a target would leave its corpus behind unused.
// Every such directory in the repository must name a Fuzz<Name>
// function declared in a _test.go file of the package the testdata
// directory belongs to.
func TestFuzzCorporaHaveTargets(t *testing.T) {
	fset := token.NewFileSet()
	targets := map[string]map[string]bool{} // package dir -> fuzz targets
	corpora := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		fuzzDir := filepath.Dir(path)
		if filepath.Base(fuzzDir) != "fuzz" || filepath.Base(filepath.Dir(fuzzDir)) != "testdata" {
			return nil
		}
		corpora++
		pkg := filepath.Dir(filepath.Dir(fuzzDir))
		if targets[pkg] == nil {
			targets[pkg] = fuzzTargets(t, fset, pkg)
		}
		if name := d.Name(); !targets[pkg][name] {
			t.Errorf("%s: no fuzz target %s in a _test.go file of %s; delete the corpus or restore the target", path, name, pkg)
		}
		return fs.SkipDir
	})
	if err != nil {
		t.Fatal(err)
	}
	if corpora == 0 {
		t.Fatal("found no testdata/fuzz corpus at all; the walk is broken")
	}
}

// fuzzTargets returns the names of the Fuzz functions declared in the
// _test.go files of directory dir.
func fuzzTargets(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

package vm

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"testing"
)

// TestLaneFileStandsAlone pins the lane file's contract: the native
// backend compiles its text into every plugin as a package of its own,
// so it imports the standard library only, has no init, and
// type-checks without any other file of this package.
func TestLaneFileStandsAlone(t *testing.T) {
	src, err := os.ReadFile("lane.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != LaneSource {
		t.Fatal("LaneSource is not the text of lane.go")
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "lane.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		pkg, err := build.Import(path, "", build.FindOnly)
		if err != nil || !pkg.Goroot {
			t.Errorf("lane.go imports %s, which is not in the standard library", path)
		}
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "init" {
			t.Errorf("lane.go declares init at %s", fset.Position(fn.Pos()))
		}
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("lane", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("lane.go does not type-check on its own: %v", err)
	}
}

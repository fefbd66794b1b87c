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

// BenchmarkLaneKernels times the word-wide lane kernels at 256 bits,
// the width the library kernels run them at, on random lanes
// (go test -run xxx -bench LaneKernels ./internal/vm).
func BenchmarkLaneKernels(b *testing.B) {
	var x, y Vec
	rng := NewXorshift(1)
	for i := range x.b {
		x.b[i], y.b[i] = byte(rng.Next32()), byte(rng.Next32())
	}
	for _, k := range []struct {
		name string
		run  func(dst *Vec)
	}{
		{"signEpi8", func(d *Vec) { signEpi8(d, 256, &x, &y) }},
		{"absEpi8", func(d *Vec) { absEpi8(d, 256, &x) }},
		{"maddubsEpi16", func(d *Vec) { maddubsEpi16(d, 256, &x, &y) }},
		{"maddEpi16", func(d *Vec) { maddEpi16(d, 256, &x, &y) }},
		{"addEpi32", func(d *Vec) { addEpi32(d, 256, &x, &y) }},
		{"shuffleEpi8", func(d *Vec) { shuffleEpi8(d, 256, &x, &y) }},
		{"andBits", func(d *Vec) { andBits(d, 256, &x, &y) }},
		{"orBits", func(d *Vec) { orBits(d, 256, &x, &y) }},
		{"xorBits", func(d *Vec) { xorBits(d, 256, &x, &y) }},
		{"andnotBits", func(d *Vec) { andnotBits(d, 256, &x, &y) }},
		{"unpackloPs", func(d *Vec) { unpackloPs(d, 256, &x, &y) }},
		{"srliEpi16", func(d *Vec) { srliEpi16(d, 256, &x, 4) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			var dst Vec
			for i := 0; i < b.N; i++ {
				k.run(&dst)
			}
		})
	}
}

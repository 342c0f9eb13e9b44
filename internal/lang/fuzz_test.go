package lang_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"detmt/internal/lang"
	"detmt/internal/workload"
)

// FuzzParse feeds the DSL parser arbitrary text: it returns an object or
// an error and never panics, an object it returns prints to source that
// parses back to the same printed text, and resolving the object's names
// (its first instance) does not panic either. The corpus starts from the
// workload generators' objects and the examples' sources.
func FuzzParse(f *testing.F) {
	// Two iterations and a few monitors show every construct the
	// generators emit; the default sizes only make each input, and the
	// minimisation of every new one, slower.
	fig1 := workload.DefaultFig1()
	fig1.Iterations, fig1.Mutexes = 2, 4
	f.Add(workload.Fig1Source(fig1))
	fig1.Announceable, fig1.CatchNested = true, true
	f.Add(workload.Fig1Source(fig1))
	fam := workload.DefaultFamilies()
	fam.Families, fam.PerFamily, fam.Iterations = 2, 2, 2
	f.Add(workload.FamiliesSource(fam))
	f.Add(workload.KVSource(workload.KVConfig{Buckets: 4}))
	for _, ex := range exampleSources(f) {
		f.Add(ex.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		o, err := lang.Parse(src)
		if err != nil {
			return
		}
		printed := lang.Print(o)
		again, err := lang.Parse(printed)
		if err != nil {
			t.Fatalf("printed object does not parse: %v\n%s", err, printed)
		}
		if reprinted := lang.Print(again); reprinted != printed {
			t.Fatalf("print/parse round trip changed the text:\n%s\nbecame\n%s", printed, reprinted)
		}
		lang.NewInstance(o, 0)
	})
}

// exampleSource is a raw string literal in examples/<dir>/main.go that
// declares an object.
type exampleSource struct{ dir, src string }

// exampleSources returns the examples' object sources in directory order.
func exampleSources(tb testing.TB) []exampleSource {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no example sources found (%v)", err)
	}
	var srcs []exampleSource
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "object ") {
				srcs = append(srcs, exampleSource{filepath.Base(filepath.Dir(name)), s})
			}
			return true
		})
	}
	return srcs
}

package dist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// The package comment's frame table is a reference only while it is
// complete: every constant of type kind has a row.
func TestDocFrameTable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, f := range pkgs["dist"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			// An iota block: the first spec names the type for all of it.
			if id, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || id.Name != "kind" {
				continue
			}
			for _, s := range gd.Specs {
				kinds = append(kinds, s.(*ast.ValueSpec).Names[0].Name)
			}
		}
	}
	if len(kinds) < 20 {
		t.Fatalf("found only %d frame kinds (%v): the const block moved or changed shape", len(kinds), kinds)
	}
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if !regexp.MustCompile(`(?m)^//\t` + k + ` `).Match(doc) {
			t.Errorf("frame kind %s has no row in doc.go's frame table", k)
		}
	}
	// And no row outlives its kind.
	if rows := regexp.MustCompile(`(?m)^//\tk[A-Z]\w* `).FindAll(doc, -1); len(rows) != len(kinds) {
		t.Errorf("doc.go's frame table has %d rows for %d frame kinds", len(rows), len(kinds))
	}
}

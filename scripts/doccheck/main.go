// Command doccheck fails (exit 1) when an exported identifier in any of
// the listed package directories lacks a doc comment. CI runs it over
// the documented surface of this repository — the root aedbmls package
// and the internal packages its docs job lists — so the guides in
// ARCHITECTURE.md and the godoc entry points they link to cannot silently
// rot as the code moves.
//
// Usage:
//
//	go run ./scripts/doccheck <pkgdir> [pkgdir...]
//
// Checked: exported top-level functions and methods, exported type
// specs, and exported const/var names (a doc comment on the enclosing
// group satisfies its members). Test files are ignored.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <pkgdir> [pkgdir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) without doc comments\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory and reports every exported
// identifier without documentation, returning the count.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: undocumented exported %s %s\n", fset.Position(pos), kind, name)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), "const/var", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return bad
}

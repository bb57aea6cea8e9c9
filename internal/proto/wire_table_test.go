package proto

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestWireTable checks what the compiler cannot about the wire table:
// every tag below the end sentinel has a row, the row's message
// answers Type() with that tag, every tag the package declares is one
// of those (the frame envelope TBatch aside), and no two message types
// claim one tag. With the compiler's half — a tag listed twice, a tag
// past the sentinel used as an index, a message type without encode or
// decode — a tag, its message, its encoder and its decoder cannot come
// apart.
func TestWireTable(t *testing.T) {
	if wire[0].make != nil {
		t.Error("tag 0 is not a message tag and has a row")
	}
	for tag := MsgType(1); tag < tEnd; tag++ {
		switch row := wire[tag]; {
		case row.make == nil:
			t.Errorf("tag %d has no row in wire: nothing decodes it", tag)
		case row.make().Type() != tag:
			t.Errorf("the row of tag %d makes a %T, whose Type() is %d", tag, row.make(), row.make().Type())
		}
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	isTag := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "MsgType" }
	claimed := map[string]string{} // tag -> the type whose Type() returns it
	for _, f := range pkgs["proto"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok != token.CONST {
					continue
				}
				// Tags are one iota run closed by tEnd, so a tag declared
				// anywhere else, after tEnd, or with a value of its own is
				// outside the table's range.
				tags, closed, n := false, false, 0
				for i, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Type != nil || vs.Values != nil {
						tags = isTag(vs.Type)
					}
					for _, name := range vs.Names {
						switch {
						case !tags || name.Name == "TBatch":
						case name.Name == "tEnd":
							closed = true
						case closed || i > 0 && vs.Values != nil:
							t.Errorf("%s: tag %s is not in the run that tEnd closes", fset.Position(name.Pos()), name.Name)
						default:
							n++
						}
					}
				}
				if n > 0 && !closed {
					t.Errorf("%s: a block of tags that tEnd does not close", fset.Position(d.Pos()))
				}
			case *ast.FuncDecl:
				if d.Name.Name != "Type" || d.Recv == nil || d.Type.Results == nil || !isTag(d.Type.Results.List[0].Type) || len(d.Body.List) != 1 {
					continue
				}
				recv := d.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
				tag := d.Body.List[0].(*ast.ReturnStmt).Results[0].(*ast.Ident).Name
				if other, dup := claimed[tag]; dup {
					t.Errorf("%s and %s both claim tag %s", other, recv, tag)
				}
				claimed[tag] = recv
			}
		}
	}
	if len(claimed) != int(tEnd)-1 {
		t.Errorf("%d message types for %d tags", len(claimed), tEnd-1)
	}
}

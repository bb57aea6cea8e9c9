package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// FuzzCFGBuild asserts the CFG builder never panics on any parseable
// function body, and that the graph it produces is structurally sane:
// edges symmetric, every node registered. Semantically bogus input
// (goto to a missing label, break outside a loop) must degrade to
// dropped edges, not failures.
func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		``,
		`x := 1`,
		`if a { b() } else if c { d() }`,
		`for i := 0; i < 10; i++ { continue }`,
		`for { select { case <-a: return; default: } }`,
		`L: for { for range xs { break L } }`,
		`switch x { case 1, 2: fallthrough; case 3: default: }`,
		`switch v := x.(type) { case int: _ = v }`,
		`goto M; M: goto Q`,
		`defer f(); go g(); ch <- 1; <-ch`,
		`break; continue; fallthrough`,
		`func() { for {} }()`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc f() {\n" + body + "\n}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip() // not parseable as a function body
		}
		fd, ok := file.Decls[0].(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			t.Skip()
		}
		g := Build(fd.Body) // must not panic
		if g.Entry == nil || g.Exit == nil {
			t.Fatal("missing entry/exit")
		}
		inGraph := map[*Node]bool{}
		for _, n := range g.Nodes {
			inGraph[n] = true
		}
		for _, n := range g.Nodes {
			for _, s := range n.Succs {
				if !inGraph[s] {
					t.Fatal("edge to unregistered node")
				}
				found := false
				for _, p := range s.Preds {
					if p == n {
						found = true
						break
					}
				}
				if !found {
					t.Fatal("asymmetric edge")
				}
			}
		}
		// Queries must terminate and not panic either.
		g.ExitReachable()
		g.ReachableAvoiding(g.Entry, func(n *Node) bool { return false })
	})
}

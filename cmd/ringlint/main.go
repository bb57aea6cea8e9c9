// Command ringlint runs Ring's project-specific static-analysis suite
// (see internal/lint) over package patterns resolved in the current
// module:
//
//	go build -o bin/ringlint ./cmd/ringlint
//	./bin/ringlint ./...
//
// Findings print as file:line:col: analyzer: message, the shape CI's
// problem matcher parses. Exit status: 0 clean, 1 findings, 2 usage or
// load/type errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"ring/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ringlint", flag.ContinueOnError)
	listFlag := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ringlint [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringlint: %v\n", err)
		return 2
	}
	status := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "ringlint: %s: %v\n", pkg.PkgPath, terr)
			status = 2
		}
		if len(pkg.TypeErrors) > 0 {
			continue
		}
		diags, err := lint.RunAnalyzers(pkg, lint.Analyzers())
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringlint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", pkg.Fset.Position(d.Pos), d.Message)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

package lint

import (
	"fmt"
	"sort"
)

// RunAnalyzers runs the given analyzers over one loaded package and
// returns their findings sorted by source position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			PkgPath:  pkg.PkgPath,
		}
		name := a.Name
		pass.report = func(d Diagnostic) {
			d.Message = name + ": " + d.Message
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

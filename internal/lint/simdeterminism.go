package lint

import (
	"go/ast"
	"strings"
)

// restrictedPkgs are the packages whose state machines must be
// deterministic: they run under the discrete-event simulator, where a
// single wall-clock read or global-RNG draw silently desynchronizes a
// calibrated run from its seed.
var restrictedPkgs = []string{
	"ring/internal/core",
	"ring/internal/sim",
	"ring/internal/srs",
}

// wallClockFuncs are the package time functions that observe or wait
// on real time. time.Duration arithmetic and constants remain free.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true, "Tick": true,
	"Since": true, "Until": true,
}

// globalRandFuncs are the math/rand package-level functions backed by
// the shared global source. rand.New(rand.NewSource(seed)) is the
// sanctioned replacement and stays legal.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true,
	"Read": true, "Seed": true,
}

// SimDeterminism forbids wall-clock time and global math/rand inside
// the simulated packages (core, sim, srs): their state machines must
// take time as an argument (the event clock) and randomness from a
// seeded source, so every simnet run is reproducible from its seed.
// The deliberate real-time boundary — core's Runner, which hosts the
// same state machine on a live fabric — opts out per function with
// //ring:wallclock. Test files are exempt (they drive the harness).
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "no time.Now/Sleep/After or global math/rand in internal/core, internal/sim, internal/srs (use the event clock and seeded RNGs; //ring:wallclock for real-time boundaries)",
	Run:  runSimDeterminism,
}

func runSimDeterminism(pass *Pass) error {
	if !restrictedPath(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) || fileDirective(pass, f, "wallclock") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasDirective(fd.Doc, "wallclock") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pn := pkgNameOf(pass.Info, sel.X)
				if pn == nil {
					return true
				}
				switch pn.Imported().Path() {
				case "time":
					if wallClockFuncs[sel.Sel.Name] {
						pass.Reportf(call.Pos(), "nondeterminism in simulated package: time.%s reads the wall clock (take the event-clock time.Duration as an argument, or mark the real-time boundary //ring:wallclock)", sel.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[sel.Sel.Name] {
						pass.Reportf(call.Pos(), "nondeterminism in simulated package: rand.%s draws from the global source (use a seeded rand.New(rand.NewSource(...)))", sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

func restrictedPath(path string) bool {
	for _, p := range restrictedPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

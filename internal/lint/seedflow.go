package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeedFlow checks that every random source is seeded by an expression
// that visibly derives from an explicit seed: a constant, an identifier
// or field whose name contains "seed", or a call to a seed-derivation
// helper (CellSeed, parallel.Seed — any function whose name contains
// "seed"). The seeded calls are math/rand's New and NewSource, detrand's
// constructors (NewStd, NewSeeded) and the Seed method of detrand's
// sources, which reseeds a reused source in place. Arithmetic mixing a
// seed with a stream index (cfg.Seed + int64(src)*7919) is fine; what
// is not fine is a seed conjured from thin air — a loop counter, a hash
// of mutable state, or anything touching the time package. Such seeds
// type-check, run, and quietly decouple the run from CellSeed, which is
// exactly the failure mode the serial==parallel tests can only catch by
// luck.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "require rand.New/rand.NewSource and detrand seeds to trace back to an " +
		"explicit seed parameter or constant, never wall-clock or ad-hoc expressions",
	Run: runSeedFlow,
}

func runSeedFlow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := seededCall(pass, call)
			if !ok || len(call.Args) != 1 {
				return true
			}
			arg := call.Args[0]
			// rand.New(rand.NewSource(seed)), rand.New(detrand.NewStd(seed)):
			// the inner call is checked on its own visit; don't demand the
			// outer arg "derive" a seed name of its own.
			if inner, ok := arg.(*ast.CallExpr); ok && name == "rand.New" {
				if n, ok := seededCall(pass, inner); ok && n != "rand.New" {
					return true
				}
			}
			if !seedClean(pass, arg) {
				pass.Reportf(arg.Pos(),
					"%s seed contains a non-seed call or wall-clock read; derive it from an explicit seed (CellSeed)", name)
			} else if !derivesSeed(pass, arg) {
				pass.Reportf(arg.Pos(),
					"%s seed does not trace back to an explicit seed parameter or constant; thread a seed (CellSeed) through instead", name)
			}
			return true
		})
	}
}

// seededCall reports whether call makes or reseeds a random source from
// its argument, returning the callee as diagnostics name it:
// "rand.New", "rand.NewSource", "detrand.NewStd", "detrand.NewSeeded",
// "detrand.Std.Seed" or "detrand.Source.Seed".
func seededCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch {
	case fn.Pkg().Path() == "math/rand" && (fn.Name() == "New" || fn.Name() == "NewSource"):
		return "rand." + fn.Name(), true
	case fn.Pkg().Name() != "detrand":
		return "", false
	case fn.Name() == "NewStd" || fn.Name() == "NewSeeded":
		return "detrand." + fn.Name(), true
	case fn.Name() == "Seed":
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return "detrand." + t.(*types.Named).Obj().Name() + ".Seed", true
		}
	}
	return "", false
}

func seedNamed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// seedClean reports whether e is free of escape hatches: no calls to
// functions that are neither conversions nor seed-derivation helpers,
// and no reference to the time package.
func seedClean(pass *Pass, e ast.Expr) bool {
	clean := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !clean {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if isConversion(pass, v.Fun) {
				return true
			}
			if name, ok := calleeName(pass, v.Fun); ok && seedNamed(name) {
				return false // trusted derivation helper; args are its business
			}
			clean = false
			return false
		case *ast.SelectorExpr:
			if obj := pass.Info.Uses[v.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
				clean = false
				return false
			}
		}
		return true
	})
	return clean
}

// derivesSeed reports whether some part of e is an explicit seed: a
// constant, a seed-named identifier/field, or a call to a seed-named
// helper.
func derivesSeed(pass *Pass, e ast.Expr) bool {
	if isConst(pass, e) {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.Ident:
			if seedNamed(v.Name) {
				found = true
			}
		case *ast.CallExpr:
			if name, ok := calleeName(pass, v.Fun); ok && seedNamed(name) {
				found = true
			}
		case *ast.BasicLit:
			found = true
		}
		return !found
	})
	return found
}

// isConversion reports whether fun names a type rather than a function.
func isConversion(pass *Pass, fun ast.Expr) bool {
	switch v := fun.(type) {
	case *ast.Ident:
		_, ok := pass.Info.Uses[v].(*types.TypeName)
		return ok
	case *ast.SelectorExpr:
		_, ok := pass.Info.Uses[v.Sel].(*types.TypeName)
		return ok
	case *ast.ParenExpr:
		return isConversion(pass, v.X)
	}
	return false
}

func calleeName(pass *Pass, fun ast.Expr) (string, bool) {
	switch v := fun.(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.SelectorExpr:
		return v.Sel.Name, true
	}
	return "", false
}

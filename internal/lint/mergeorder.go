package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MergeOrder flags merges that drain concurrently produced results
// from a channel in completion order. Channel delivery order is
// scheduling order — it varies run to run and with GOMAXPROCS — so any
// order-sensitive effect fed from a drain loop breaks the contract that
// a parallel sweep (parallel.ForEach, RunAll) prints exactly
// what a serial one does. The check covers every channel drain in the
// module; the fix is to merge over a stable slice or per-slot storage.
//
// Two loop shapes are checked, using the same effect taxonomy as
// maporder (orderleak.go):
//
//   - `for r := range resultCh { ... }` — every iteration is
//     completion-ordered, so appends (unless sorted afterwards), FP
//     accumulation, emits, sends, returns, and last-writer-wins
//     assignments of r-derived values are diagnostics;
//   - a counted loop containing receives (`for i := 0; i < n; i++ {
//     r := <-resultCh; ... }`, including select clauses) — the loop
//     itself is ordered, so only effects fed by received values are
//     flagged.
//
// Per-slot writes indexed by the received message (out[r.slot] = r.v)
// are the canonical repair and stay legal: slot uniqueness is the
// dispatcher's contract. A drain whose order is provably harmless
// carries `//dardlint:mergeorder <why>`.
var MergeOrder = &Analyzer{
	Name: "mergeorder",
	Doc: "flag merges that drain per-worker results from a channel in completion order " +
		"into an order-sensitive effect; merge over a stable slice or per-slot storage instead",
	Run: runMergeOrder,
}

func runMergeOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkChanDrains(pass, body, body)
			}
			return true
		})
	}
}

func checkChanDrains(pass *Pass, n ast.Node, fnBody *ast.BlockStmt) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // gets its own walk with its own body scope
		}
		switch loop := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypeOf(loop.X)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Chan:
				// Range over a channel: the iteration order IS the
				// completion order.
				vars := rangeVarObjects(pass, loop)
				sc := loopScope{loop: loop, body: loop.Body, vars: vars, keys: vars, recvDependent: true}
				if effect := orderLeak(pass, sc, fnBody); effect != "" {
					pass.Reportf(loop.Pos(),
						"channel drain merges worker results in completion order (%s); merge over a stable slice or per-slot storage, or justify with //dardlint:mergeorder",
						effect)
				}
			case *types.Map:
				// maporder's turf.
			default:
				// Ordered range (slice, array, integer): hazardous only
				// through values received inside the body.
				checkOrderedReceiveLoop(pass, loop, loop.Body, fnBody)
			}
		case *ast.ForStmt:
			checkOrderedReceiveLoop(pass, loop, loop.Body, fnBody)
		}
		return true
	})
}

// checkOrderedReceiveLoop handles deterministically-ordered loops that
// pull worker results off a channel inside the body: the loop order is
// stable, but the received values arrive in completion order.
func checkOrderedReceiveLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt, fnBody *ast.BlockStmt) {
	vars := receivedVars(pass, body)
	if len(vars) == 0 && !loopBodyReceives(body) {
		return
	}
	sc := loopScope{loop: loop, body: body, vars: vars, keys: vars, recvDependent: true, orderedIteration: true}
	if effect := orderLeak(pass, sc, fnBody); effect != "" {
		pass.Reportf(loop.Pos(),
			"loop receives worker results in completion order and feeds an order-sensitive effect (%s); merge over a stable slice or per-slot storage, or justify with //dardlint:mergeorder",
			effect)
	}
}

// loopBodyReceives reports whether body contains a channel receive
// outside nested function literals.
func loopBodyReceives(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			found = true
		}
		return !found
	})
	return found
}

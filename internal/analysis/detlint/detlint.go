// Package detlint enforces the simulator's determinism contract: every
// run from a given seed must replay cycle-for-cycle (the engine is
// single-threaded, events are (cycle, seq)-ordered, and all randomness
// flows through internal/sim's seeded RNG). It flags, in the event-path
// packages:
//
//   - `range` over a map whose body performs order-sensitive work
//     (calls, sends, or writes to state declared outside the loop) —
//     Go randomizes map iteration order per run, so any side effect
//     sequenced by such a loop diverges between replays;
//   - imports of math/rand or math/rand/v2 (global, unseeded state;
//     use sim.RNG);
//   - calls to time.Now / time.Since / time.Until (wall-clock leakage
//     into simulated time) and to os.Getenv / os.LookupEnv / os.Environ
//     (environment side channels around the explicit configuration);
//   - `go` statements (each engine is strictly single-threaded;
//     goroutine interleaving is nondeterministic by definition). The
//     exception is registered per *function* (goAllowedFuncs), not per
//     package: figures.SweepCtx fans whole single-threaded simulations
//     out over a worker pool and joins them. Everywhere else, including
//     the rest of package figures and all of package sim, `go` stays
//     flagged.
//
// A map range is allowed when its body is order-insensitive: pure
// reads, accumulation through builtins (`keys = append(keys, k)`
// followed by a sort is the canonical fix), and writes to variables
// declared inside the loop. See docs/ANALYSIS.md.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dresar/internal/analysis"
)

// Analyzer is the detlint instance.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "flag nondeterminism sources (map-order side effects, wall clock, environment, global rand, goroutines) in event-path packages",
	Run:  run,
}

// scope is the set of packages forming the simulator's event path.
// Packages outside it (workload synthesis, figures, CLIs) may use maps
// and clocks freely; fixture packages (non-dresar paths) are always in
// scope so the analyzer is testable.
var scope = map[string]bool{
	"dresar/internal/sim":     true,
	"dresar/internal/core":    true,
	"dresar/internal/dirctl":  true,
	"dresar/internal/sdir":    true,
	"dresar/internal/node":    true,
	"dresar/internal/cache":   true,
	"dresar/internal/xbar":    true,
	"dresar/internal/flit":    true,
	"dresar/internal/figures": true,
}

// goAllowedFuncs is the scoped goroutine exception registry: package
// path -> exact function names (methods spelled "(*Recv).Name") whose
// bodies may start goroutines. Admitted is only the one place where
// goroutines provably cannot perturb simulated behavior: SweepCtx
// joins independent single-threaded simulations before returning. A
// `go` statement anywhere else in a scope package — including
// elsewhere in package figures — is flagged; every other rule (map
// order, wall clock, global rand) applies inside the admitted function
// too. "sweep" is the fixture.
var goAllowedFuncs = map[string]map[string]bool{
	"dresar/internal/figures": {"SweepCtx": true},
	"sweep":                   {"pool": true},
}

// pureBuiltins never make a map-range body order-sensitive.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "append": true, "delete": true,
	"copy": true, "make": true, "new": true, "min": true, "max": true,
}

// bannedCalls maps a package path to its functions that leak host
// state into the simulation, and the reason reported for a call.
var bannedCalls = map[string]struct {
	funcs  map[string]bool
	reason string
}{
	"time": {map[string]bool{"Now": true, "Since": true, "Until": true},
		"wall clock is not replayable, use sim.Engine cycles"},
	"os": {map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true},
		"the environment is a side channel, take the setting from the caller's configuration"},
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if strings.HasPrefix(path, "dresar/") && !scope[path] {
		return nil, nil
	}
	for _, file := range pass.SourceFiles() {
		for _, spec := range file.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(spec.Pos(), "detlint: import of %s in event-path package %s: global rand state is not replayable, use sim.RNG", p, path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goStmtAllowed(path, file, n) {
					pass.Reportf(n.Pos(), "detlint: goroutine in event-path package %s: the engine is single-threaded; schedule an event instead (or register the function in goAllowedFuncs)", path)
				}
			case *ast.CallExpr:
				if name, reason, ok := bannedCall(pass, n); ok {
					pass.Reportf(n.Pos(), "detlint: %s in event-path package %s: %s", name, path, reason)
				}
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// goStmtAllowed reports whether the `go` statement sits in the body of
// a function registered in goAllowedFuncs for this package.
func goStmtAllowed(path string, file *ast.File, g *ast.GoStmt) bool {
	fns := goAllowedFuncs[path]
	if fns == nil {
		return false
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if g.Pos() < fd.Body.Pos() || g.End() > fd.Body.End() {
			continue
		}
		return fns[declName(fd)]
	}
	return false
}

// declName renders a FuncDecl's registry key: "Name" for functions,
// "(*Recv).Name" / "(Recv).Name" for methods.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + exprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// bannedCall reports whether call invokes a function in bannedCalls,
// returning its qualified name and the reason.
func bannedCall(pass *analysis.Pass, call *ast.CallExpr) (name, reason string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	b := bannedCalls[fn.Pkg().Path()]
	if !b.funcs[fn.Name()] {
		return "", "", false
	}
	return fn.Pkg().Path() + "." + fn.Name(), b.reason, true
}

// checkRange flags `range m` over a map whose body is order-sensitive.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if why := orderSensitive(pass, rng); why != "" {
		pass.Reportf(rng.Pos(), "detlint: iteration over map %s has order-sensitive body (%s); map order differs between runs — iterate sorted keys instead", exprString(rng.X), why)
	}
}

// orderSensitive scans the loop body for work whose outcome depends on
// iteration order; it returns a human-readable reason, or "".
func orderSensitive(pass *analysis.Pass, rng *ast.RangeStmt) string {
	var why string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if impure, name := impureCall(pass, n); impure {
				why = "calls " + name
			}
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.GoStmt:
			why = "starts a goroutine"
		case *ast.DeferStmt:
			why = "defers a call"
		case *ast.IncDecStmt:
			if declaredOutside(pass, n.X, rng) && !isIntAccum(pass, n.X, n.Tok, nil) {
				why = "mutates " + exprString(n.X) + " declared outside the loop"
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if !declaredOutside(pass, lhs, rng) {
					continue
				}
				// x = append(x, ...) is pure accumulation: element
				// order is settled by the sort the fix pattern adds.
				if n.Tok == token.ASSIGN && i < len(n.Rhs) && isAppendOf(pass, n.Rhs[i], lhs) {
					continue
				}
				var rhs ast.Expr
				if i < len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				if isIntAccum(pass, lhs, n.Tok, rhs) {
					continue
				}
				why = "writes " + exprString(lhs) + " declared outside the loop"
				break
			}
		}
		return why == ""
	})
	return why
}

// impureCall reports whether call can have order-sensitive effects:
// anything but a pure builtin or a type conversion.
func impureCall(pass *analysis.Pass, call *ast.CallExpr) (bool, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return true, "a computed function"
	}
	switch obj := pass.TypesInfo.Uses[id].(type) {
	case *types.Builtin:
		if pureBuiltins[obj.Name()] {
			return false, ""
		}
	case *types.TypeName:
		return false, "" // conversion
	}
	return true, id.Name
}

// accumTokens are compound-assignment operators that commute and
// associate over (wrapping) integers, so a loop applying them in any
// map order reaches the same value. The same operators on floats stay
// flagged: float addition is not associative.
var accumTokens = map[token.Token]bool{
	token.INC: true, token.DEC: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true,
	token.XOR_ASSIGN: true, token.AND_NOT_ASSIGN: true,
}

// isIntAccum reports whether the write is order-insensitive integer
// accumulation: sum += c[0] and friends. This is an approximation —
// mixing operator classes on one variable (x += a then x |= b) is not
// order-free — but it admits the ubiquitous counter/total pattern. The
// RHS must not mention the accumulated variable itself (x += x + k is
// an order-sensitive affine map, not a sum).
func isIntAccum(pass *analysis.Pass, lhs ast.Expr, tok token.Token, rhs ast.Expr) bool {
	if !accumTokens[tok] {
		return false
	}
	t := pass.TypesInfo.TypeOf(lhs)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return false
	}
	if rhs == nil {
		return true
	}
	lhsID := rootIdent(lhs)
	if lhsID == nil {
		return false
	}
	lhsObj := pass.TypesInfo.Uses[lhsID]
	selfRef := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && lhsObj != nil && pass.TypesInfo.Uses[id] == lhsObj {
			selfRef = true
		}
		return !selfRef
	})
	return !selfRef
}

// declaredOutside reports whether the root object of expr was declared
// outside the range statement.
func declaredOutside(pass *analysis.Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(expr)
	if id == nil {
		return true // conservative: unknown roots count as outer state
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent strips selectors, indexing, derefs, and parens down to the
// base identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isAppendOf reports whether rhs is append(lhs, ...).
func isAppendOf(pass *analysis.Pass, rhs, lhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	return exprString(call.Args[0]) == exprString(lhs)
}

// exprString renders small expressions for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	default:
		return "expression"
	}
}

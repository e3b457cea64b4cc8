package analysis

import (
	"go/ast"
	"go/token"
)

// Floatexact polices the bit-exactness contract in the parity-critical
// packages (the root package, internal/label, internal/delta): every
// tier — flat, compressed, sharded, replicated, patched — must answer
// queries bit-identically, and the parity harness asserts it with ==.
// Stored distances are uint32 counts of a power-of-two unit, so every
// answer is exact and == is always the right comparison; what erodes the
// contract is the epsilon comparison, math.Abs(a-b) < eps: a tolerance
// window papers over real divergence until it grows past the window.
// (No float32 is left to widen: CI's "one distance domain" step keeps
// float32 out of the non-test sources.)
var Floatexact = &Analyzer{
	Name: "floatexact",
	Doc:  "distance answers are bit-exact: no epsilon-tolerance comparisons; compare with ==",
	AppliesTo: func(rel string) bool {
		return rel == "" || rel == "internal/label" || rel == "internal/delta"
	},
	Run: runFloatexact,
}

// runFloatexact flags math.Abs(a-b) OP x, or x OP math.Abs(a-b): an
// epsilon tolerance whichever side the threshold sits on. The check is
// syntactic so it covers _test.go files too — parity tests are exactly
// where tolerances try to sneak in.
func runFloatexact(pass *Pass) error {
	for _, f := range pass.AllFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch e.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
			default:
				return true
			}
			if pass.isAbsOfDiff(f, e.X) || pass.isAbsOfDiff(f, e.Y) {
				pass.Reportf(e.Pos(),
					"the contract is bit-exact: compare answers with ==",
					"epsilon-tolerance comparison (math.Abs of a difference against a threshold)")
			}
			return true
		})
	}
	return nil
}

// isAbsOfDiff matches math.Abs(expr) where expr contains a subtraction
// at its top level (possibly parenthesized).
func (p *Pass) isAbsOfDiff(f *ast.File, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	name, ok := p.pkgCall(f, call, "math")
	if !ok || name != "Abs" {
		return false
	}
	diff, ok := unparen(call.Args[0]).(*ast.BinaryExpr)
	return ok && diff.Op == token.SUB
}

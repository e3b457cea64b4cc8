// Package floatexact exercises the floatexact analyzer: epsilon
// comparisons, and the magnitude math that is not one.
package floatexact

import "math"

func epsilon(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 // want "epsilon-tolerance comparison"
}

func epsilonFlipped(a, b, eps float64) bool {
	return eps > math.Abs(a-b) // want "epsilon-tolerance comparison"
}

// exact is the approved comparison.
func exact(a, b float64) bool { return a == b }

// Abs without a difference inside is magnitude math, not a tolerance.
func magnitude(a, b float64) bool {
	return math.Abs(a) < math.Abs(b)
}

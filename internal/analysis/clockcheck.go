package analysis

import (
	"go/ast"
	"strings"
)

// forbiddenTimeFuncs are the package-time entry points that read or act
// on the wall clock. PR 7 moved every time-driven behavior in the
// serving stack onto the injectable Clock; these are the ways drift
// creeps back in. time.Since is included even though the issue class is
// usually stated as time.Now — Since *is* Now with the subtraction
// inlined, and it was exactly the prom.go shape that motivated this
// analyzer.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// measuredPackages are the construction and experiment packages. Their
// time.Now/time.Since pairs are the measurement they export (ConstructTime,
// CleanTime, the experiment tables) and decide nothing, so a fake clock would
// only report fake results; they are outside the invariant.
var measuredPackages = map[string]bool{
	"internal/pll":   true,
	"internal/gll":   true,
	"internal/plant": true,
	"internal/dist":  true,
	"internal/exp":   true,
}

// Clockcheck keeps the serving tree on the Clock: the root package and
// every internal/ package but the measuredPackages must read the
// injectable Clock (clock.go), so every time-driven behavior — ejection,
// probation, hedging, quotas, request-latency metrics — is deterministic
// under a FakeClock. A new internal/ package is checked by default. Only
// clock.go itself (the Clock implementations), cmd/, and examples/ may
// touch package time. In _test.go files, time.Sleep specifically is
// flagged: PR 7 deleted every sleep-based wait, and a new one is either a
// flake or a slow test waiting to happen.
var Clockcheck = &Analyzer{
	Name: "clockcheck",
	Doc: "forbid time.Now/Since/Sleep/After/Tick/AfterFunc/NewTimer/NewTicker in the serving tree; " +
		"time-driven machinery runs on the injectable Clock (PR 7), and tests step a FakeClock instead of sleeping",
	AppliesTo: func(rel string) bool {
		return rel == "" || strings.HasPrefix(rel, "internal/") && !measuredPackages[rel]
	},
	Run: runClockcheck,
}

func runClockcheck(pass *Pass) error {
	for _, f := range pass.AllFiles() {
		if pass.Filename(f.Pos()) == "clock.go" {
			// The Clock implementations are the one sanctioned bridge to
			// package time.
			continue
		}
		isTest := pass.IsTest(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgCall(f, call, "time")
			if !ok || !forbiddenTimeFuncs[name] {
				return true
			}
			if isTest {
				if name != "Sleep" {
					return true // tests may read wall time; they must not wait on it
				}
				pass.Reportf(call.Pos(),
					"synchronize on observable state or step a FakeClock (clock.go); sleeps are flakes with a latency budget",
					"time.Sleep in a test")
				return true
			}
			pass.Reportf(call.Pos(),
				"thread the injectable Clock here (Server/Router clock, FakeClock in tests); see clock.go",
				"time.%s outside the Clock discipline", name)
			return true
		})
	}
	return nil
}

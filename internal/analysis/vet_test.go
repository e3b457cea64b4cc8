package analysis

import (
	"strings"
	"testing"
)

func TestClockcheck(t *testing.T) { RunTest(t, "testdata", Clockcheck, "clockcheck") }

func TestPairkey(t *testing.T) { RunTest(t, "testdata", Pairkey, "pairkey") }

func TestErrcontract(t *testing.T) { RunTest(t, "testdata", Errcontract, "errcontract") }

func TestFloatexact(t *testing.T) { RunTest(t, "testdata", Floatexact, "floatexact") }

func TestSnapshotref(t *testing.T) { RunTest(t, "testdata", Snapshotref, "snapshotref") }

// TestAllowAnnotations drives the allowbad fixture directly: malformed
// annotations must surface as chlvet pseudo-diagnostics, must not
// suppress the finding beneath them, and a well-formed one must.
func TestAllowAnnotations(t *testing.T) {
	loader := NewFixtureLoader("testdata/src")
	pkg, err := loader.Load("allowbad")
	if err != nil {
		t.Fatalf("loading allowbad: %v", err)
	}
	diags := run(pkg, []*Analyzer{Clockcheck}, true)

	var got []string
	for _, d := range diags {
		got = append(got, "["+d.Analyzer+"] "+d.Message)
	}
	wants := []string{
		"[chlvet] chlvet:allow without a justification",
		"[chlvet] chlvet:allow names unknown analyzer \"clokcheck\"",
		// Neither malformed annotation suppresses anything: the two
		// time.Now calls under them still surface.
		"[clockcheck] time.Now outside the Clock discipline",
		"[clockcheck] time.Now outside the Clock discipline",
	}
	if len(got) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
	matched := make([]bool, len(got))
	for _, want := range wants {
		found := false
		for i, g := range got {
			if !matched[i] && strings.Contains(g, want) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

// TestAppliesTo pins each analyzer's package scope.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{Clockcheck, "", true},
		{Clockcheck, "internal/label", true},
		{Clockcheck, "internal/delta", true},
		{Clockcheck, "internal/ptree", true}, // not on the list: checked by default
		{Clockcheck, "internal/pll", false},
		{Clockcheck, "internal/gll", false},
		{Clockcheck, "internal/plant", false},
		{Clockcheck, "internal/dist", false},
		{Clockcheck, "internal/exp", false},
		{Clockcheck, "cmd/chlquery", false},
		{Clockcheck, "examples/quickstart", false},
		{Pairkey, "", true},
		{Pairkey, "internal/shard", false},
		{Errcontract, "", true},
		{Errcontract, "cmd/chlrouter", false},
		{Floatexact, "", true},
		{Floatexact, "internal/label", true},
		{Floatexact, "internal/delta", true},
		{Floatexact, "internal/graph", false},
		{Snapshotref, "", true},
		{Snapshotref, "internal/dist", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.rel); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.rel, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(Analyzers))
	}
	two, err := ByName("clockcheck, pairkey")
	if err != nil || len(two) != 2 || two[0] != Clockcheck || two[1] != Pairkey {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func TestDocumentedStatusList(t *testing.T) {
	if got, want := DocumentedStatusList(), "400/404/405/409/413/421/429/500/502/503"; got != want {
		t.Fatalf("DocumentedStatusList() = %q, want %q", got, want)
	}
}

func TestParseWant(t *testing.T) {
	pats, ok, err := parseWant(`// want "a b" "c(d)?"`)
	if err != nil || !ok || len(pats) != 2 || pats[0] != "a b" || pats[1] != "c(d)?" {
		t.Fatalf("parseWant = %v, %v, %v", pats, ok, err)
	}
	if _, ok, _ := parseWant("// a plain comment"); ok {
		t.Fatal("plain comment parsed as want")
	}
	if _, ok, err := parseWant(`// want unquoted`); !ok || err == nil {
		t.Fatal("malformed want not rejected")
	}
}

package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	chl "repro"
)

// chl must succeed on its own defaults: -algo is left to the library,
// which picks per directedness, and the output names the builder that
// ran. (The flag used to default to gll, which refuses directed input.)
func TestDefaultAlgorithmPerDirectedness(t *testing.T) {
	for _, tc := range []struct {
		dataset, want string
		directed      bool
	}{
		{"CAL", "build: PLaNT:", false},
		{"WND", "build: seqPLL-directed:", true},
	} {
		out := filepath.Join(t.TempDir(), "ix.chl")
		var stdout bytes.Buffer
		if err := run([]string{"-dataset", tc.dataset, "-scale", "0.05", "-out", out}, &stdout); err != nil {
			t.Fatalf("chl -dataset %s: %v\n%s", tc.dataset, err, &stdout)
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("chl -dataset %s printed no %q line:\n%s", tc.dataset, tc.want, &stdout)
		}
		ix, err := chl.LoadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Directed() != tc.directed {
			t.Errorf("dataset %s: saved index directed = %v", tc.dataset, ix.Directed())
		}
	}
	// An explicit choice that cannot run is still an error, not a silent swap.
	if err := run([]string{"-dataset", "WND", "-scale", "0.05", "-algo", "gll"}, &bytes.Buffer{}); err == nil {
		t.Error("chl -algo gll on a directed graph succeeded")
	}
}

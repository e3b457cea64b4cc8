// Package onlytests has test files and nothing else, a package the go
// tool lists: chlvet must load it (and find it clean), not refuse it.
package onlytests

import (
	"testing"

	"goodmod"
)

func TestAdd(t *testing.T) {
	if got := goodmod.Add(2, 3); got != 5 {
		t.Fatalf("Add(2, 3) = %d, want 5", got)
	}
}

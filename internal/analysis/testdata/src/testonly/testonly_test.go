// Package testonly holds test files alone: the loader must still parse
// them, so the test-file rules reach a package with no other source.
package testonly

import (
	"testing"
	"time"
)

func TestWaits(t *testing.T) {
	start := time.Now()               // tests may read wall time
	time.Sleep(10 * time.Millisecond) // want "time.Sleep in a test"
	_ = time.Since(start)
}

//go:build hepcheck

package graph

import (
	"math"
	"strings"
	"testing"
)

// TestSetLensRejectsGrowth: under hepcheck, writing back a list length
// above the current one panics, since it would make a removed entry valid
// again.
func TestSetLensRejectsGrowth(t *testing.T) {
	c := buildTestCSR(t, 3, []Edge{{U: 0, V: 1}, {U: 0, V: 2}}, math.Inf(1))
	c.SetLens(0, 1, 0)
	for _, lens := range [][2]int{{2, 0}, {1, 1}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "hepcheck: graph: SetLens") {
					t.Errorf("SetLens(0, %d, %d): panic %q, want a hepcheck SetLens panic", lens[0], lens[1], msg)
				}
			}()
			c.SetLens(0, lens[0], lens[1])
		}()
	}
}

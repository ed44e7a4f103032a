// Package good holds API deadapi accepts: a func used from a second
// package, a func used only inside its own package, and methods reached
// through an interface or by the standard library's type assertions.
package good

import (
	"encoding/json"
	"fmt"

	"repro/internal/analysis/testdata/src/deadapi/good/lib"
)

// Double is used only inside this package.
func Double(x float64) float64 { return lib.Scale(x) }

type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area has no direct caller: it is reached through shape.
func (s square) Area() float64 { return s.side * s.side }

type level int

// String is reached by fmt's type assertion.
func (l level) String() string { return fmt.Sprintf("level-%d", int(l)) }

type reading struct{ kwh float64 }

// MarshalJSON is reached by encoding/json's type assertion.
func (r reading) MarshalJSON() ([]byte, error) { return json.Marshal(r.kwh) }

func total(shapes []shape) float64 {
	var sum float64
	for _, s := range shapes {
		sum += Double(s.Area())
	}
	return sum
}

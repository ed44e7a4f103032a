// Package attack implements the paper's electricity-theft attack taxonomy
// (Section VI, Table I) and the concrete false-data-injection realizations
// evaluated in Section VIII: the ARIMA attack, the Integrated ARIMA attack,
// the Optimal Swap attack, and the ADR price-spoofing attack of Class 4B.
//
// Attack vectors are generated exactly as the paper prescribes: the
// attacker replicates the utility's detector state from passively observed
// training data and pins or samples injected readings so that the
// detector's own checks pass (Section VIII-B).
package attack

import "fmt"

// Class enumerates the seven attack classes of Table I. The A classes fail
// the balance check; the B classes circumvent it by over-reporting at least
// one neighbour (Proposition 2).
type Class int

// The seven attack classes.
const (
	Class1A Class = iota + 1 // consume more, report typical (line tap)
	Class2A                  // under-report own consumption
	Class3A                  // load-shift reports across price periods
	Class1B                  // 1A + over-report neighbours to balance
	Class2B                  // 2A + over-report neighbours to balance
	Class3B                  // 3A + over-report neighbours to balance
	Class4B                  // ADR price spoofing + proportional shift
)

// Classes lists all seven classes in Table I order.
func Classes() []Class {
	return []Class{Class1A, Class2A, Class3A, Class1B, Class2B, Class3B, Class4B}
}

// String names the class as in the paper.
func (c Class) String() string {
	switch c {
	case Class1A:
		return "1A"
	case Class2A:
		return "2A"
	case Class3A:
		return "3A"
	case Class1B:
		return "1B"
	case Class2B:
		return "2B"
	case Class3B:
		return "3B"
	case Class4B:
		return "4B"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// RequiresADR reports whether the class requires automated demand response
// infrastructure (row 5 of Table I). Only Class 4B does.
func (c Class) RequiresADR() bool { return c == Class4B }

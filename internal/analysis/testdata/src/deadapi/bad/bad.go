// Package bad seeds deadapi violations: exported API that no non-test code
// refers to outside its own declaration.
package bad

// Unused has no caller anywhere. Its recursive call is part of its own
// declaration and does not count as a use.
func Unused(n int) int { // want "exported func bad.Unused"
	if n <= 0 {
		return 0
	}
	return Unused(n - 1)
}

// Meter is used (by meters below), but its Reset method is not.
type Meter struct{ readings int }

// Reset has no caller and satisfies no interface.
func (m *Meter) Reset() { m.readings = 0 } // want "exported method bad.(*Meter).Reset"

// Orphan is named only by its own declaration and its method's receiver.
type Orphan struct{ next *Orphan } // want "exported type bad.Orphan"

func (o *Orphan) len() int {
	if o == nil {
		return 0
	}
	return 1 + o.next.len()
}

// Limit is an exported constant nobody reads.
const Limit = 3 // want "exported const bad.Limit"

var meters = []*Meter{{readings: 1}}

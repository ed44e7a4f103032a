// Package lib declares API that a second package, its importer, uses.
package lib

// Scale is called from package good.
func Scale(x float64) float64 { return 2 * x }

package obs

// Add shifts the gauge by delta via a CAS loop. The registry tests use it
// to hammer the float CAS that Histogram.Observe's sum relies on.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

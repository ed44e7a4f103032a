package timeseries

import "fmt"

// PopulationMatrix is the struct-of-arrays training store for
// population-scale work: every consumer's training weeks live in one
// contiguous []float64, consumer-major. Consumer i's block is
// data[i*weeks*336 : (i+1)*weeks*336], itself laid out exactly like a
// WeekMatrix backing array, so per-consumer Series and WeekMatrix views
// alias the flat storage with zero copying. One allocation backs the whole
// population; the residual and histogram loops walk it sequentially.
type PopulationMatrix struct {
	consumers int
	weeks     int
	data      []float64
}

// NewPopulationMatrix allocates storage for `consumers` consumers of
// `weeks` training weeks each, zero-filled.
func NewPopulationMatrix(consumers, weeks int) (*PopulationMatrix, error) {
	if consumers <= 0 {
		return nil, fmt.Errorf("timeseries: population needs at least one consumer, got %d", consumers)
	}
	if weeks <= 0 {
		return nil, fmt.Errorf("timeseries: population needs at least one week, got %d", weeks)
	}
	return &PopulationMatrix{
		consumers: consumers,
		weeks:     weeks,
		data:      make([]float64, consumers*weeks*SlotsPerWeek),
	}, nil
}

// PopulationFromSeries packs the first `weeks` complete weeks of each
// series into a fresh PopulationMatrix. Every series must cover at least
// `weeks` complete weeks; weeks <= 0 selects the shortest series' count.
func PopulationFromSeries(series []Series, weeks int) (*PopulationMatrix, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("timeseries: population needs at least one series")
	}
	if weeks <= 0 {
		weeks = series[0].Weeks()
		for _, s := range series[1:] {
			if w := s.Weeks(); w < weeks {
				weeks = w
			}
		}
	}
	p, err := NewPopulationMatrix(len(series), weeks)
	if err != nil {
		return nil, err
	}
	for i, s := range series {
		if err := p.SetSeries(i, s); err != nil {
			return nil, fmt.Errorf("consumer %d: %w", i, err)
		}
	}
	return p, nil
}

// Consumers returns the number of consumers in the population.
func (p *PopulationMatrix) Consumers() int { return p.consumers }

// block returns consumer i's slice of the flat storage.
func (p *PopulationMatrix) block(i int) []float64 {
	n := p.weeks * SlotsPerWeek
	return p.data[i*n : (i+1)*n : (i+1)*n]
}

// Series returns consumer i's training series as a view aliasing the flat
// storage. Mutating the returned slice mutates the population.
func (p *PopulationMatrix) Series(i int) Series { return Series(p.block(i)) }

// Matrix returns consumer i's WeekMatrix view aliasing the flat storage —
// the same rows-by-336 layout NewWeekMatrix would copy into, without the
// copy.
func (p *PopulationMatrix) Matrix(i int) *WeekMatrix {
	return &WeekMatrix{rows: p.weeks, data: p.block(i)}
}

// SetSeries copies the first Weeks() complete weeks of s into consumer i's
// block. s must cover at least Weeks() complete weeks.
func (p *PopulationMatrix) SetSeries(i int, s Series) error {
	if avail := s.Weeks(); avail < p.weeks {
		return fmt.Errorf("timeseries: series has %d complete weeks, population stores %d", avail, p.weeks)
	}
	copy(p.block(i), s[:p.weeks*SlotsPerWeek])
	return nil
}

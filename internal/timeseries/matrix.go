package timeseries

import (
	"fmt"
)

// WeekMatrix is the training matrix X of Section VII-D: one row per training
// week, one column per half-hour of the week (336 columns). Rows share a
// single backing array for locality.
type WeekMatrix struct {
	rows int
	data []float64
}

// NewWeekMatrix builds the matrix from the first `weeks` complete weeks of
// the series. weeks <= 0 selects every complete week.
func NewWeekMatrix(s Series, weeks int) (*WeekMatrix, error) {
	avail := s.Weeks()
	if weeks <= 0 {
		weeks = avail
	}
	if weeks == 0 {
		return nil, fmt.Errorf("timeseries: series has no complete weeks")
	}
	if weeks > avail {
		return nil, fmt.Errorf("timeseries: requested %d weeks but series has %d", weeks, avail)
	}
	m := &WeekMatrix{
		rows: weeks,
		data: make([]float64, weeks*SlotsPerWeek),
	}
	copy(m.data, s[:weeks*SlotsPerWeek])
	return m, nil
}

// Rows returns M, the number of training weeks.
func (m *WeekMatrix) Rows() int { return m.rows }

// Cols returns the number of columns, always SlotsPerWeek.
func (m *WeekMatrix) Cols() int { return SlotsPerWeek }

// Row returns week i as a subslice of the backing array (X_i in the paper).
func (m *WeekMatrix) Row(i int) Series {
	return Series(m.data[i*SlotsPerWeek : (i+1)*SlotsPerWeek])
}

// Flat returns all values of X as a single slice, the sample the paper's
// X distribution histogram is built from. The slice aliases the matrix.
func (m *WeekMatrix) Flat() []float64 { return m.data }

// RowMeans returns the mean of each week, used by the Integrated ARIMA
// detector's historic-mean threshold.
func (m *WeekMatrix) RowMeans() []float64 {
	means := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			sum += v
		}
		means[i] = sum / SlotsPerWeek
	}
	return means
}

// RowVariances returns the unbiased sample variance of each week.
func (m *WeekMatrix) RowVariances() []float64 {
	vars := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var sum float64
		for _, v := range row {
			sum += v
		}
		mean := sum / SlotsPerWeek
		var ss float64
		for _, v := range row {
			d := v - mean
			ss += d * d
		}
		vars[i] = ss / (SlotsPerWeek - 1)
	}
	return vars
}

// SeasonalProfile returns the across-week mean of each half-hour-of-week
// column: the expected weekly shape of the consumer.
func (m *WeekMatrix) SeasonalProfile() Series {
	return m.SeasonalProfileInto(make(Series, SlotsPerWeek))
}

// SeasonalProfileInto is SeasonalProfile writing into a caller-provided
// buffer of length SlotsPerWeek. The accumulation walks the matrix
// row-major — one sequential pass instead of 336 strided column scans —
// while each column's partial sums still add in week order, so the result
// is bit-identical to the column-at-a-time computation.
func (m *WeekMatrix) SeasonalProfileInto(dst Series) Series {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*SlotsPerWeek : (i+1)*SlotsPerWeek]
		for j, v := range row {
			dst[j] += v
		}
	}
	inv := float64(m.rows)
	for j := range dst {
		dst[j] /= inv
	}
	return dst
}

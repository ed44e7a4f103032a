package ami

import (
	"math/bits"

	"repro/internal/timeseries"
)

// pageSlots is the span of one store page: a day of half-hour slots.
const pageSlots = timeseries.SlotsPerDay

// dayPage holds one day of a meter's readings: slot p*48+i of page p keeps
// its kW in kw[i], and bit i of present says whether it has one.
type dayPage struct {
	present uint64
	kw      [pageSlots]float64
}

// meterPages is one meter's stored readings, kept in day pages keyed by
// slot/48. A full page costs 392 bytes (a 416-byte allocation) for 48
// readings, about 8.7 bytes per reading plus one map entry per day. A writer
// that never puts two readings in the same day pays one page and one map
// entry per reading; that is the bound for sparse slots.
type meterPages struct {
	pages map[int64]*dayPage
	n     int // stored readings: the set present bits over every page
}

// put stores rs in order, so a later reading for a slot overwrites an
// earlier one (last write wins). A run of readings in one day looks its page
// up once. Slots are non-negative: decodePayload rejects the rest before
// anything is stored.
func (m *meterPages) put(rs []BatchReading) {
	var pg *dayPage
	cur := int64(-1)
	for _, r := range rs {
		idx, off := r.Slot/pageSlots, r.Slot%pageSlots
		if idx != cur {
			cur = idx
			if pg = m.pages[idx]; pg == nil {
				pg = new(dayPage)
				m.pages[idx] = pg
			}
		}
		bit := uint64(1) << off
		if pg.present&bit == 0 {
			pg.present |= bit
			m.n++
		}
		pg.kw[off] = r.KW
	}
}

// get returns the reading stored for slot.
func (m *meterPages) get(slot int64) (float64, bool) {
	if slot < 0 {
		return 0, false
	}
	pg := m.pages[slot/pageSlots]
	if pg == nil || pg.present&(uint64(1)<<(slot%pageSlots)) == 0 {
		return 0, false
	}
	return pg.kw[slot%pageSlots], true
}

// dense fills out with slots [0, len(out)), reporting the first slot that
// holds no reading.
func (m *meterPages) dense(out []float64) (missing int64, ok bool) {
	for start := 0; start < len(out); start += pageSlots {
		pg := m.pages[int64(start/pageSlots)]
		end := min(start+pageSlots, len(out))
		for i := start; i < end; i++ {
			off := i - start
			if pg == nil || pg.present&(uint64(1)<<off) == 0 {
				return int64(i), false
			}
			out[i] = pg.kw[off]
		}
	}
	return 0, true
}

// appendAll appends every stored reading to dst, in no particular order.
func (m *meterPages) appendAll(dst []BatchReading) []BatchReading {
	for idx, pg := range m.pages {
		for set := pg.present; set != 0; set &= set - 1 {
			off := bits.TrailingZeros64(set)
			dst = append(dst, BatchReading{Slot: idx*pageSlots + int64(off), KW: pg.kw[off]})
		}
	}
	return dst
}

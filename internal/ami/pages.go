package ami

import (
	"math/bits"

	"repro/internal/timeseries"
)

// pageSlots is the span of one store page: a day of half-hour slots.
const pageSlots = timeseries.SlotsPerDay

// dayPage holds one day of a meter's readings: slot p*48+i of page p keeps
// its kW in kw[i], and bit i of present says whether it has one. It holds
// no Go pointer, so it can live in memory the garbage collector never sees
// (pageArena).
type dayPage struct {
	present uint64
	kw      [pageSlots]float64
}

// defaultChunkPages is the size of a shard arena's first chunk, in pages
// (about 25 KB); each later chunk doubles it.
const defaultChunkPages = 64

// pageArena hands out one shard's day pages, numbered from 0 in the order
// they are taken, from chunks of pointer-free memory (newPageChunk). Chunk k
// holds first<<k pages, so page i's chunk and offset follow from i alone and
// a new chunk is mapped only once every earlier one is full. A page is never
// freed: a later reading for its slots overwrites it in place. The chunks
// are released only when the arena becomes unreachable, so reads stay valid
// after the head-end closes. Callers hold the shard lock.
type pageArena struct {
	shift  uint // log2 of the first chunk's page count
	chunks []*pageChunk
	used   uint32 // pages handed out
}

// pageChunk is one contiguous run of pages.
type pageChunk struct{ pages []dayPage }

// newPageArena returns an arena whose first chunk holds chunkPages pages
// (0 selects defaultChunkPages; others round down to a power of two). It
// maps nothing until the first page is taken.
func newPageArena(chunkPages int) pageArena {
	if chunkPages <= 0 {
		chunkPages = defaultChunkPages
	}
	return pageArena{shift: uint(bits.Len(uint(chunkPages)) - 1)}
}

// locate returns the chunk and offset of page i: chunks 0..k-1 hold
// first*(2^k - 1) pages between them.
func (a *pageArena) locate(i uint32) (k int, off uint32) {
	k = bits.Len32(i>>a.shift+1) - 1
	return k, i - (uint32(1)<<k-1)<<a.shift
}

// page returns page i, which alloc has handed out.
func (a *pageArena) page(i uint32) *dayPage {
	k, off := a.locate(i)
	return &a.chunks[k].pages[off]
}

// alloc takes the next page, zeroed, mapping a new chunk when the last is
// full.
func (a *pageArena) alloc() uint32 {
	i := a.used
	if k, _ := a.locate(i); k == len(a.chunks) {
		a.chunks = append(a.chunks, newPageChunk(1<<(uint(k)+a.shift)))
	}
	a.used++
	return i
}

// meterPages is one meter's stored readings: the arena page of each day it
// has a reading for, keyed by slot/48. A full page costs 392 bytes of arena
// for 48 readings, about 8.2 bytes per reading, plus one pointer-free map
// entry per day on the heap. A writer that never puts two readings in the
// same day pays one page and one map entry per reading; that is the bound
// for sparse slots.
type meterPages struct {
	id    string           // the meter ID, shared with the shard map's key
	pages map[int64]uint32 // day → page number in the shard's arena
	n     int              // stored readings: the set present bits over every page
}

// put stores rs in order, so a later reading for a slot overwrites an
// earlier one (last write wins). A run of readings in one day looks its page
// up once. Slots are non-negative: decodePayload rejects the rest before
// anything is stored.
func (m *meterPages) put(a *pageArena, rs []BatchReading) {
	var pg *dayPage
	cur := int64(-1)
	for _, r := range rs {
		idx, off := r.Slot/pageSlots, r.Slot%pageSlots
		if idx != cur {
			cur = idx
			p, ok := m.pages[idx]
			if !ok {
				p = a.alloc()
				m.pages[idx] = p
			}
			pg = a.page(p)
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
func (m *meterPages) get(a *pageArena, slot int64) (float64, bool) {
	if slot < 0 {
		return 0, false
	}
	p, ok := m.pages[slot/pageSlots]
	if !ok {
		return 0, false
	}
	pg := a.page(p)
	if pg.present&(uint64(1)<<(slot%pageSlots)) == 0 {
		return 0, false
	}
	return pg.kw[slot%pageSlots], true
}

// dense fills out with slots [0, len(out)), reporting the first slot that
// holds no reading.
func (m *meterPages) dense(a *pageArena, out []float64) (missing int64, ok bool) {
	for start := 0; start < len(out); start += pageSlots {
		p, held := m.pages[int64(start/pageSlots)]
		var pg *dayPage
		if held {
			pg = a.page(p)
		}
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
func (m *meterPages) appendAll(a *pageArena, dst []BatchReading) []BatchReading {
	for idx, p := range m.pages {
		pg := a.page(p)
		for set := pg.present; set != 0; set &= set - 1 {
			off := bits.TrailingZeros64(set)
			dst = append(dst, BatchReading{Slot: idx*pageSlots + int64(off), KW: pg.kw[off]})
		}
	}
	return dst
}

package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension attached to an instrument. Labels are
// fixed at registration: a (name, label-set) pair identifies exactly one
// instrument for the registry's lifetime.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. The zero value is usable, but
// only instruments obtained from a Registry appear in snapshots.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (active connections, coverage
// ratios). Stored as IEEE-754 bits so Set is a single atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bucket upper bounds are frozen
// at registration (an implicit +Inf bucket catches the tail), so Observe is
// a bounded scan plus two atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // per-bucket (non-cumulative); len = len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// FineLatencyBuckets are the upper bounds (seconds) for latencies: 1µs to
// 10s, roughly geometric. The fine tail below 100µs serves hot-path
// operations (loopback ingest, in-process stores) — without it, every
// observation lands in one bucket and quantile estimates collapse.
func FineLatencyBuckets() []float64 {
	return []float64{0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// instrumentKind discriminates registry entries.
type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("instrumentKind(%d)", int(k))
	}
}

// instrument is one registered (name, labels) entry.
type instrument struct {
	name   string
	help   string
	labels []Label
	kind   instrumentKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a set of named instruments. Registration (the Counter, Gauge,
// and Histogram get-or-create methods) takes a mutex; the returned handles
// are then bumped lock-free. A Registry must not be copied after first use.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*instrument)}
}

// defaultRegistry is the process-wide registry components fall back to when
// not handed an explicit one.
var defaultRegistry = NewRegistry()

// Default returns the process-wide shared registry.
func Default() *Registry { return defaultRegistry }

// key renders the identity of a (name, labels) pair. Labels are sorted so
// registration order never creates duplicate instruments.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortLabels returns a sorted copy so callers' slices are never mutated.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup get-or-creates an entry. Re-registering the same identity with a
// different kind is a programming error and panics, matching the behavior of
// every mainstream metrics client.
func (r *Registry) lookup(name, help string, kind instrumentKind, labels []Label, mk func() *instrument) *instrument {
	if name == "" {
		panic("obs: empty metric name")
	}
	labels = sortLabels(labels)
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", k, kind, e.kind))
		}
		return e
	}
	//lint:ignore lockhold mk is a package-private allocation closure (a few words of memory, no IO), and get-or-create must be atomic under r.mu
	e := mk()
	e.name, e.help, e.labels, e.kind = name, help, labels, kind
	r.entries[k] = e
	return e
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.lookup(name, help, kindCounter, labels, func() *instrument {
		return &instrument{counter: &Counter{}}
	})
	return e.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.lookup(name, help, kindGauge, labels, func() *instrument {
		return &instrument{gauge: &Gauge{}}
	})
	return e.gauge
}

// Histogram returns the histogram for (name, labels), creating it on first
// use with the given ascending bucket upper bounds (+Inf is implicit). The
// bounds of an already-registered histogram are kept.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	e := r.lookup(name, help, kindHistogram, labels, func() *instrument {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		return &instrument{hist: &Histogram{
			bounds: bs,
			counts: make([]atomic.Uint64, len(bs)+1),
		}}
	})
	return e.hist
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"` // math.Inf(1) for the tail bucket
	Count      uint64  `json:"count"`
}

// Metric is one instrument's point-in-time state.
type Metric struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Type   string  `json:"type"`
	Labels []Label `json:"labels,omitempty"`

	// Value carries counters (as a whole number) and gauges.
	Value float64 `json:"value"`
	// Histogram-only fields; Buckets are cumulative, Prometheus-style.
	Buckets []Bucket `json:"buckets,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
}

// Snapshot is a consistent-enough point-in-time export: each instrument is
// read atomically, instruments are sorted by (name, labels), and concurrent
// writers are never blocked.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot exports every registered instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := make([]*instrument, 0, len(r.entries))
	keys := make(map[*instrument]string, len(r.entries))
	for k, e := range r.entries {
		entries = append(entries, e)
		keys[e] = k
	}
	r.mu.Unlock()
	// Sort by name first so metric families stay contiguous (one HELP/TYPE
	// header per family in the text encoding), then by full identity.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return keys[entries[i]] < keys[entries[j]]
	})

	snap := Snapshot{Metrics: make([]Metric, 0, len(entries))}
	for _, e := range entries {
		m := Metric{Name: e.name, Help: e.help, Type: e.kind.String(), Labels: e.labels}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.counter.Value())
		case kindGauge:
			m.Value = e.gauge.Value()
		case kindHistogram:
			h := e.hist
			m.Count = h.Count()
			m.Sum = h.Sum()
			m.Buckets = make([]Bucket, len(h.bounds)+1)
			var cum uint64
			for i := range h.counts {
				cum += h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				m.Buckets[i] = Bucket{UpperBound: ub, Count: cum}
			}
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

package topology

import (
	"fmt"
	"math/rand"
)

// BuilderConfig parameterizes random radial feeder generation. The paper
// reports distribution-grid tree depths between 5 and 135 (Section VI-A);
// generated trees fall in the configured depth range.
type BuilderConfig struct {
	Consumers     int     // number of consumer leaves to place
	MaxFanout     int     // maximum children per internal node (the n of n-ary)
	TargetDepth   int     // approximate tree depth to aim for
	MeterFraction float64 // fraction of internal nodes carrying balance meters
	LossFraction  float64 // demand fraction modeled as losses per internal node
	Seed          int64
}

// DefaultBuilderConfig returns a small but structurally interesting feeder.
func DefaultBuilderConfig() BuilderConfig {
	return BuilderConfig{
		Consumers:     40,
		MaxFanout:     4,
		TargetDepth:   6,
		MeterFraction: 1.0,
		LossFraction:  0.02,
		Seed:          1,
	}
}

// BuildRandom generates a random radial feeder with the requested number of
// consumers. Every internal node gets a loss leaf; balance meters are placed
// on internal nodes with probability MeterFraction (the root is always
// metered and trusted).
func BuildRandom(cfg BuilderConfig) (*Tree, error) {
	if cfg.Consumers <= 0 {
		return nil, fmt.Errorf("topology: need at least one consumer, got %d", cfg.Consumers)
	}
	if cfg.MaxFanout < 2 {
		return nil, fmt.Errorf("topology: max fanout must be >= 2, got %d", cfg.MaxFanout)
	}
	if cfg.TargetDepth < 1 {
		return nil, fmt.Errorf("topology: target depth must be >= 1, got %d", cfg.TargetDepth)
	}
	if cfg.MeterFraction < 0 || cfg.MeterFraction > 1 {
		return nil, fmt.Errorf("topology: meter fraction %g outside [0, 1]", cfg.MeterFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := NewTree("root")

	// Grow internal skeleton: a list of "open" internal nodes that can still
	// take children.
	open := []*Node{t.Root}
	internalCount := 0
	placed := 0
	for placed < cfg.Consumers {
		// Pick an open node biased toward deeper nodes until target depth.
		idx := rng.Intn(len(open))
		parent := open[idx]
		if parent.Depth() < cfg.TargetDepth-1 && rng.Float64() < 0.5 {
			// Extend the skeleton downward.
			internalCount++
			metered := rng.Float64() < cfg.MeterFraction
			child, err := t.AddNode(parent.ID, fmt.Sprintf("N%d", internalCount), Internal, metered)
			if err != nil {
				return nil, err
			}
			open = append(open, child)
			continue
		}
		// Attach consumers to this node up to fanout.
		room := cfg.MaxFanout - len(parent.Children)
		if room <= 0 {
			// Node is full; close it.
			open[idx] = open[len(open)-1]
			open = open[:len(open)-1]
			if len(open) == 0 {
				// Reopen by extending from the root.
				internalCount++
				metered := rng.Float64() < cfg.MeterFraction
				child, err := t.AddNode(t.Root.ID, fmt.Sprintf("N%d", internalCount), Internal, metered)
				if err != nil {
					return nil, err
				}
				open = append(open, child)
			}
			continue
		}
		n := rng.Intn(room) + 1
		if n > cfg.Consumers-placed {
			n = cfg.Consumers - placed
		}
		for i := 0; i < n; i++ {
			placed++
			if _, err := t.AddNode(parent.ID, fmt.Sprintf("C%d", placed), Consumer, true); err != nil {
				return nil, err
			}
		}
	}

	// Give every internal node a loss leaf.
	lossID := 0
	var internals []*Node
	_ = t.Walk(func(n *Node) error {
		if n.Kind == Internal {
			internals = append(internals, n)
		}
		return nil
	})
	for _, n := range internals {
		lossID++
		if _, err := t.AddNode(n.ID, fmt.Sprintf("L%d", lossID), Loss, false); err != nil {
			return nil, err
		}
	}
	// Internal nodes that ended up with only a loss child would be
	// degenerate; validation treats loss-only internals as having children,
	// so just validate the final structure.
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildFig2 constructs the exact example tree of Fig. 2 in the paper:
// root N1 with children N2, N3, L1; N2 with consumers C1-C3 and loss L2;
// N3 with consumers C4, C5 and loss L3.
func BuildFig2() (*Tree, error) {
	t := NewTree("N1")
	steps := []struct {
		parent, id string
		kind       NodeKind
	}{
		{"N1", "N2", Internal},
		{"N1", "N3", Internal},
		{"N1", "L1", Loss},
		{"N2", "C1", Consumer},
		{"N2", "C2", Consumer},
		{"N2", "C3", Consumer},
		{"N2", "L2", Loss},
		{"N3", "C4", Consumer},
		{"N3", "C5", Consumer},
		{"N3", "L3", Loss},
	}
	for _, st := range steps {
		if _, err := t.AddNode(st.parent, st.id, st.kind, st.kind == Internal); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

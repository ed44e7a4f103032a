package topology

import (
	"errors"
	"strings"
	"testing"
)

func TestNodeKindString(t *testing.T) {
	if Internal.String() != "internal" || Consumer.String() != "consumer" || Loss.String() != "loss" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(NodeKind(42).String(), "42") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestNewTreeRoot(t *testing.T) {
	tr := NewTree("root")
	if tr.Root == nil || tr.Root.ID != "root" {
		t.Fatal("root missing")
	}
	if !tr.Root.Metered || !tr.Root.Trusted {
		t.Error("root must be metered and trusted (Section VII-A)")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestAddNodeRules(t *testing.T) {
	tr := NewTree("root")
	if _, err := tr.AddNode("missing", "x", Consumer, false); !errors.Is(err, ErrNotFound) {
		t.Error("unknown parent should yield ErrNotFound")
	}
	c, err := tr.AddNode("root", "C1", Consumer, false)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Metered {
		t.Error("consumers always carry smart meters")
	}
	if _, err := tr.AddNode("root", "C1", Consumer, false); err == nil {
		t.Error("duplicate ID should error")
	}
	if _, err := tr.AddNode("C1", "x", Consumer, false); err == nil {
		t.Error("consumers cannot have children")
	}
	if _, err := tr.AddNode("root", "L1", Loss, true); err == nil {
		t.Error("loss nodes cannot be metered")
	}
	if _, err := tr.AddNode("root", "bad", NodeKind(9), false); err == nil {
		t.Error("invalid kind should error")
	}
}

func TestDepthAndPath(t *testing.T) {
	tr := NewTree("root")
	n1, _ := tr.AddNode("root", "N1", Internal, true)
	n2, _ := tr.AddNode("N1", "N2", Internal, false)
	c, _ := tr.AddNode("N2", "C1", Consumer, false)
	if tr.Root.Depth() != 0 || n1.Depth() != 1 || n2.Depth() != 2 || c.Depth() != 3 {
		t.Error("depths wrong")
	}
	var path []*Node
	for cur := c; cur != nil; cur = cur.Parent {
		path = append(path, cur)
	}
	if len(path) != 4 || path[1] != n2 || path[2] != n1 || path[3] != tr.Root {
		t.Error("parent path to the root wrong")
	}
}

func TestConsumersAndInternalsSorted(t *testing.T) {
	tr := NewTree("root")
	tr.AddNode("root", "N2", Internal, true)
	tr.AddNode("root", "N1", Internal, true)
	tr.AddNode("N1", "C2", Consumer, false)
	tr.AddNode("N2", "C1", Consumer, false)
	cons := tr.Consumers()
	if len(cons) != 2 || cons[0].ID != "C1" || cons[1].ID != "C2" {
		t.Errorf("Consumers order: %v", ids(cons))
	}
	ints := tr.Internals()
	if len(ints) != 3 || ints[0].ID != "N1" || ints[2].ID != "root" {
		t.Errorf("Internals order: %v", ids(ints))
	}
}

func ids(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	tr, err := BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	_ = tr.Walk(func(n *Node) error {
		visited = append(visited, n.ID)
		return nil
	})
	if visited[0] != "N1" || len(visited) != tr.Len() {
		t.Errorf("walk order %v", visited)
	}
	// Pre-order: N2 before its children C1-C3.
	idx := map[string]int{}
	for i, id := range visited {
		idx[id] = i
	}
	if idx["N2"] > idx["C1"] {
		t.Error("parents must precede children")
	}
	// Early stop.
	stop := errors.New("stop")
	count := 0
	err = tr.Walk(func(n *Node) error {
		count++
		if count == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || count != 3 {
		t.Error("Walk should stop early on error")
	}
}

func TestDescendantSets(t *testing.T) {
	tr, _ := BuildFig2()
	n3, _ := tr.Node("N3")
	cons := DescendantConsumers(n3)
	if len(cons) != 2 || cons[0].ID != "C4" || cons[1].ID != "C5" {
		t.Errorf("N3 consumers: %v", ids(cons))
	}
	losses := DescendantLosses(n3)
	if len(losses) != 1 || losses[0].ID != "L3" {
		t.Errorf("N3 losses: %v", ids(losses))
	}
	root := tr.Root
	if len(DescendantConsumers(root)) != 5 {
		t.Error("root should see all 5 consumers")
	}
	if len(DescendantLosses(root)) != 3 {
		t.Error("root should see all 3 losses")
	}
}

func TestValidate(t *testing.T) {
	tr, _ := BuildFig2()
	if err := tr.Validate(); err != nil {
		t.Errorf("Fig. 2 tree should validate: %v", err)
	}
	// Internal node without children fails validation.
	bad := NewTree("root")
	bad.AddNode("root", "N1", Internal, false)
	if err := bad.Validate(); err == nil {
		t.Error("childless internal node should fail validation")
	}
}

func TestNodeLookup(t *testing.T) {
	tr, _ := BuildFig2()
	if _, err := tr.Node("C4"); err != nil {
		t.Error("existing node lookup failed")
	}
	if _, err := tr.Node("nope"); !errors.Is(err, ErrNotFound) {
		t.Error("missing node should yield ErrNotFound")
	}
}

func TestBuildFig2Structure(t *testing.T) {
	tr, err := BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	// 1 root + 2 internal + 5 consumers + 3 losses = 11 nodes.
	if tr.Len() != 11 {
		t.Errorf("Len = %d, want 11", tr.Len())
	}
	n1 := tr.Root
	if len(n1.Children) != 3 {
		t.Errorf("N1 should have 3 children, got %d", len(n1.Children))
	}
}

func TestBuildRandomValidation(t *testing.T) {
	bad := DefaultBuilderConfig()
	bad.Consumers = 0
	if _, err := BuildRandom(bad); err == nil {
		t.Error("zero consumers should error")
	}
	bad = DefaultBuilderConfig()
	bad.MaxFanout = 1
	if _, err := BuildRandom(bad); err == nil {
		t.Error("fanout < 2 should error")
	}
	bad = DefaultBuilderConfig()
	bad.TargetDepth = 0
	if _, err := BuildRandom(bad); err == nil {
		t.Error("zero depth should error")
	}
	bad = DefaultBuilderConfig()
	bad.MeterFraction = 1.5
	if _, err := BuildRandom(bad); err == nil {
		t.Error("meter fraction > 1 should error")
	}
}

func TestBuildRandomProperties(t *testing.T) {
	cfg := DefaultBuilderConfig()
	cfg.Consumers = 60
	tr, err := BuildRandom(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("random tree invalid: %v", err)
	}
	if got := len(tr.Consumers()); got != 60 {
		t.Errorf("consumer count = %d, want 60", got)
	}
	// Every internal node has a loss leaf.
	for _, n := range tr.Internals() {
		hasLoss := false
		for _, c := range n.Children {
			if c.Kind == Loss {
				hasLoss = true
				break
			}
		}
		if !hasLoss {
			t.Errorf("internal node %s lacks a loss leaf", n.ID)
		}
	}
	// Determinism.
	tr2, _ := BuildRandom(cfg)
	if tr.Len() != tr2.Len() {
		t.Error("random build must be deterministic by seed")
	}
}

func TestMetersToCompromise(t *testing.T) {
	tr, _ := BuildFig2()
	// C4's path: N3 (metered) -> N1 (root, excluded).
	n, err := MetersToCompromise(tr, "C4")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("MetersToCompromise(C4) = %d, want 1", n)
	}
	if _, err := MetersToCompromise(tr, "N3"); err == nil {
		t.Error("non-consumer should error")
	}
	if _, err := MetersToCompromise(tr, "nope"); err == nil {
		t.Error("unknown node should error")
	}
}

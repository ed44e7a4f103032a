// Package topology models the radial electric distribution grid of Section V
// of the paper as an unbalanced n-ary tree: internal nodes are buses or
// transformers (optionally instrumented with balance meters), and leaf nodes
// are either end-consumers or aggregate network losses. Active power is
// additive, so the demand at an internal node is the sum of the demands of
// its children (Eq. 4).
//
// The package implements the industry balance check (Eqs. 5-6) and the two
// investigation procedures of Section V-C: the deepest-failing-meter scan
// when every internal node is metered (Case 1), and the BFS "serviceman"
// search when some are not (Case 2).
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// NodeKind distinguishes the three node types of the tree representation.
type NodeKind int

// Node kinds per Fig. 2 of the paper.
const (
	Internal NodeKind = iota + 1 // bus/transformer, may host a balance meter
	Consumer                     // end-consumer with a smart meter
	Loss                         // aggregate line/transformer losses
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case Internal:
		return "internal"
	case Consumer:
		return "consumer"
	case Loss:
		return "loss"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// ErrNotFound indicates an unknown node ID.
var ErrNotFound = errors.New("topology: node not found")

// Node is one vertex of the distribution tree.
type Node struct {
	ID       string
	Kind     NodeKind
	Parent   *Node
	Children []*Node

	// Metered reports whether an internal node hosts a balance meter
	// (consumers always have smart meters; loss nodes are never metered —
	// losses are calculated from component specifications, Section V-A).
	Metered bool

	// Trusted marks a meter the utility trusts unconditionally. The paper's
	// evaluation assumes only the root balance meter is trusted
	// (Section VII-A).
	Trusted bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Depth returns the number of edges from the root to this node.
func (n *Node) Depth() int {
	d := 0
	for cur := n; cur.Parent != nil; cur = cur.Parent {
		d++
	}
	return d
}

// Tree is a radial distribution grid.
type Tree struct {
	Root  *Node
	nodes map[string]*Node
}

// NewTree creates a tree with a metered, trusted root node of the given ID.
func NewTree(rootID string) *Tree {
	root := &Node{ID: rootID, Kind: Internal, Metered: true, Trusted: true}
	return &Tree{
		Root:  root,
		nodes: map[string]*Node{rootID: root},
	}
}

// AddNode attaches a new node under the named parent. Consumers and losses
// must be leaves; children may only be added beneath internal nodes.
func (t *Tree) AddNode(parentID, id string, kind NodeKind, metered bool) (*Node, error) {
	switch kind {
	case Internal, Consumer, Loss:
	default:
		return nil, fmt.Errorf("topology: invalid node kind %v", kind)
	}
	parent, ok := t.nodes[parentID]
	if !ok {
		return nil, fmt.Errorf("topology: parent %q: %w", parentID, ErrNotFound)
	}
	if parent.Kind != Internal {
		return nil, fmt.Errorf("topology: cannot attach children to %v node %q", parent.Kind, parentID)
	}
	if _, exists := t.nodes[id]; exists {
		return nil, fmt.Errorf("topology: duplicate node ID %q", id)
	}
	if kind == Loss && metered {
		return nil, fmt.Errorf("topology: loss node %q cannot be metered", id)
	}
	n := &Node{
		ID:      id,
		Kind:    kind,
		Parent:  parent,
		Metered: metered || kind == Consumer, // consumers always carry smart meters
	}
	parent.Children = append(parent.Children, n)
	t.nodes[id] = n
	return n, nil
}

// Node looks a node up by ID.
func (t *Tree) Node(id string) (*Node, error) {
	n, ok := t.nodes[id]
	if !ok {
		return nil, fmt.Errorf("topology: %q: %w", id, ErrNotFound)
	}
	return n, nil
}

// Len returns the total number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// Consumers returns every consumer node in deterministic (ID-sorted) order.
func (t *Tree) Consumers() []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n.Kind == Consumer {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Internals returns every internal node in deterministic (ID-sorted) order.
func (t *Tree) Internals() []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if n.Kind == Internal {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Walk visits every node in pre-order, parents before children, children in
// insertion order. The visit function may return an error to stop early.
func (t *Tree) Walk(visit func(*Node) error) error {
	var rec func(*Node) error
	rec = func(n *Node) error {
		if err := visit(n); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(t.Root)
}

// DescendantConsumers returns the consumer leaves in the subtree rooted at
// n — the set C of Eq. 4 — in ID-sorted order.
func DescendantConsumers(n *Node) []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(cur *Node) {
		if cur.Kind == Consumer {
			out = append(out, cur)
			return
		}
		for _, c := range cur.Children {
			rec(c)
		}
	}
	rec(n)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DescendantLosses returns the loss leaves in the subtree rooted at n — the
// set L of Eq. 4 — in ID-sorted order.
func DescendantLosses(n *Node) []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(cur *Node) {
		if cur.Kind == Loss {
			out = append(out, cur)
			return
		}
		for _, c := range cur.Children {
			rec(c)
		}
	}
	rec(n)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Validate checks structural invariants: every non-root node has a parent,
// leaves are consumers or losses, and internal nodes have children.
func (t *Tree) Validate() error {
	return t.Walk(func(n *Node) error {
		if n != t.Root && n.Parent == nil {
			return fmt.Errorf("topology: node %q is detached", n.ID)
		}
		switch n.Kind {
		case Internal:
			if n.IsLeaf() && n != t.Root {
				return fmt.Errorf("topology: internal node %q has no children", n.ID)
			}
		case Consumer, Loss:
			if !n.IsLeaf() {
				return fmt.Errorf("topology: %v node %q must be a leaf", n.Kind, n.ID)
			}
		}
		return nil
	})
}

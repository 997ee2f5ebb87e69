package exec

import "tcq/internal/ra"

// NodeInfo is a snapshot of an executor node, consumed by the adaptive
// cost model (internal/cost) and the time-control strategies
// (internal/timectrl) — they predict the next stage's cost from the
// tree's structure and cumulative state without touching live nodes.
// Nodes own their NodeInfo: a tree is valid until its next Snapshot.
type NodeInfo struct {
	ID       int
	Op       OpKind
	Children []*NodeInfo

	// CumOut is the cumulative number of output tuples produced.
	CumOut int64
	// CumPoints is the cumulative point-space coverage of the operator
	// (denominator of its sample selectivity, Fig. 3.3).
	CumPoints float64

	// PredComparisons is the number of atomic comparisons in a select
	// node's predicate (cost weight of one tuple check).
	PredComparisons int

	// Base relation facts (base nodes only).
	BaseName       string
	BaseTuples     int64
	BaseBlocks     int
	BlockingFactor int
	// SRS reports tuple-level simple random sampling (base nodes only);
	// false means cluster (block) sampling.
	SRS bool

	// Plan is the fulfillment plan (merge nodes only).
	Plan Plan
	// NumRuns is the number of per-stage sorted runs held on each side
	// (merge nodes only); stage s+1 merges against all of them under
	// full fulfillment.
	NumRuns int

	// OutTupleSize is the byte width of this node's output tuples.
	OutTupleSize int

	// Src is the relational algebra expression the node evaluates
	// (used by the prestored-selectivity oracle of §3.1).
	Src ra.Expr

	kids [2]*NodeInfo // backing array of Children
}

// Snapshot captures the current state of an executor tree into the
// nodes' own NodeInfo records.
func Snapshot(n Node) *NodeInfo {
	var info *NodeInfo
	switch v := n.(type) {
	case *baseNode:
		info = &v.info
		info.BaseName = v.feed.Rel.Name()
		info.BaseTuples = v.feed.Rel.NumTuples()
		info.BaseBlocks = v.feed.Rel.NumBlocks()
		info.BlockingFactor = v.feed.Rel.BlockingFactor()
		info.SRS = v.feed.srs
		info.Src = v.src
	case *selectNode:
		info = &v.info
		info.PredComparisons = v.predSize
		info.Src = v.src
		info.kids[0] = Snapshot(v.child)
		info.Children = info.kids[:1]
	case *projectNode:
		info = &v.info
		info.Src = v.src
		info.kids[0] = Snapshot(v.child)
		info.Children = info.kids[:1]
	case *mergeNode:
		info = &v.info
		info.Plan = v.plan
		info.NumRuns = v.stages
		info.Src = v.src
		info.kids[0], info.kids[1] = Snapshot(v.left), Snapshot(v.right)
		info.Children = info.kids[:2]
	default: // a leaf the executor did not build (tests' stub inputs)
		info = &NodeInfo{}
	}
	info.ID = n.ID()
	info.Op = n.Op()
	info.CumOut = n.CumOutTuples()
	info.CumPoints = n.Stats().CumPoints
	info.OutTupleSize = n.Schema().TupleSize()
	return info
}

// WalkInfo visits every NodeInfo depth-first (children first).
func WalkInfo(n *NodeInfo, fn func(*NodeInfo)) {
	for _, c := range n.Children {
		WalkInfo(c, fn)
	}
	fn(n)
}

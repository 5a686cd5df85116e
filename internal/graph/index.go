package graph

import (
	"fmt"
	"hash/maphash"
	"sync"
)

// Index is an adjacency snapshot of a graph's nodes: their positions,
// each tensor's producer, every produced tensor's consumers in
// compressed sparse row (CSR) form, each node's in-degree, and the
// producer of each node's every input. Graph.Index
// builds it in O(V+E), and the graph passes (sorting, shape inference,
// the search, the pipelining pass, the runtime and the verifier) take
// their adjacency from it instead of rescanning the node list per lookup.
//
// An index describes the nodes as they were when it was built: a pass
// that adds, removes or rewires nodes builds a new one. Shapes are not
// part of it, so shape inference leaves an index valid. A built index is
// read-only and safe for concurrent use.
type Index struct {
	g     *Graph
	nodes []*Node

	// Produced tensors are numbered ("slots") in node order: node i's
	// outputs that no earlier output produced are the slots
	// outStart[i] .. outStart[i+1]-1. Slot s is tensor slotName[s],
	// produced by node slotNode[s]; prod hashes a name to its slot.
	outStart []int32
	slotNode []int32
	slotName []string
	prod     table
	// Slot s is read by the distinct nodes cons[consStart[s]:consStart[s+1]],
	// at positions consPos[...], in node order.
	consStart []int32
	cons      []*Node
	consPos   []int32
	// indeg[i] counts the distinct produced tensors node i reads.
	indeg []int32
	// Node i's input k is read from the node at position
	// inProd[inStart[i]+k], or from no node (-1).
	inStart []int32
	inProd  []int32

	dups       []DupProducer
	undeclared []UndeclaredInput

	// names maps a node name to its first position. Only name lookups
	// need it, so it is built on the first one.
	namesOnce sync.Once
	names     map[string]int32
}

// DupProducer is a tensor that two outputs produce: Node's output Tensor
// was already produced by First (an earlier node, or Node itself).
type DupProducer struct {
	Node, First *Node
	Tensor      string
}

// UndeclaredInput is a tensor Node reads that no node produces and the
// tensor table does not declare.
type UndeclaredInput struct {
	Node   *Node
	Tensor string
}

// Index builds the adjacency index of the graph's current nodes.
func (g *Graph) Index() *Index {
	n, nOut, nIn := len(g.Nodes), 0, 0
	for _, nd := range g.Nodes {
		nOut += len(nd.Outputs)
		nIn += len(nd.Inputs)
	}
	x := &Index{
		g:        g,
		nodes:    append([]*Node(nil), g.Nodes...),
		slotName: make([]string, 0, nOut),
		prod:     newTable(nOut),
	}
	arena := make([]int32, 3*n+3*nOut+3*nIn+3)
	take := func(k int) []int32 {
		s := arena[:k:k]
		arena = arena[k:]
		return s
	}
	x.outStart, x.indeg, x.inStart, x.inProd = take(n+1), take(n), take(n+1), take(nIn)
	x.slotNode = take(nOut)[:0]
	for i, nd := range x.nodes {
		for _, t := range nd.Outputs {
			s, free, dup := x.prod.get(t, x.slotName)
			if dup {
				x.dups = append(x.dups, DupProducer{Node: nd, First: x.nodes[x.slotNode[s]], Tensor: t})
				continue
			}
			x.prod.slots[free] = int32(len(x.slotName)) + 1
			x.slotNode = append(x.slotNode, int32(i))
			x.slotName = append(x.slotName, t)
		}
		x.outStart[i+1] = int32(len(x.slotNode))
	}

	// Count each slot's distinct consumers, remembering every input
	// edge's producer and slot (-1: a graph input, a weight, or, for the
	// slot only, a duplicate read).
	slots := len(x.slotNode)
	x.consStart = take(slots + 1)
	last, edge := take(slots), take(nIn)
	e := 0
	for c, nd := range x.nodes {
		for _, t := range nd.Inputs {
			edge[e], x.inProd[e] = -1, -1
			s, _, ok := x.prod.get(t, x.slotName)
			switch {
			case !ok:
				if _, declared := g.Tensors[t]; !declared {
					x.undeclared = append(x.undeclared, UndeclaredInput{Node: nd, Tensor: t})
				}
			case last[s] != int32(c+1):
				last[s] = int32(c + 1)
				x.consStart[s+1]++
				x.indeg[c]++
				edge[e] = s
			}
			if ok {
				x.inProd[e] = x.slotNode[s]
			}
			e++
		}
		x.inStart[c+1] = int32(e)
	}
	for s := 0; s < slots; s++ {
		x.consStart[s+1] += x.consStart[s]
		last[s] = x.consStart[s] // fill cursor
	}
	x.cons = make([]*Node, x.consStart[slots])
	x.consPos = take(nIn)[:len(x.cons)]
	e = 0
	for c, nd := range x.nodes {
		for range nd.Inputs {
			if s := edge[e]; s >= 0 {
				x.cons[last[s]], x.consPos[last[s]] = nd, int32(c)
				last[s]++
			}
			e++
		}
	}
	return x
}

// Graph returns the indexed graph.
func (x *Index) Graph() *Graph { return x.g }

// Len returns the number of indexed nodes.
func (x *Index) Len() int { return len(x.nodes) }

// At returns the node at position i (the graph's insertion order).
func (x *Index) At(i int) *Node { return x.nodes[i] }

// Pos returns the position of the first node named name, or -1.
func (x *Index) Pos(name string) int {
	x.namesOnce.Do(func() {
		x.names = make(map[string]int32, len(x.nodes))
		for i := len(x.nodes) - 1; i >= 0; i-- {
			x.names[x.nodes[i].Name] = int32(i)
		}
	})
	if i, ok := x.names[name]; ok {
		return int(i)
	}
	return -1
}

// Node returns the first node named name, or nil.
func (x *Index) Node(name string) *Node {
	if i := x.Pos(name); i >= 0 {
		return x.nodes[i]
	}
	return nil
}

// ProducerPos returns the position of the node producing tensor, or -1
// for graph inputs, weights and unknown tensors.
func (x *Index) ProducerPos(tensor string) int {
	if s, _, ok := x.prod.get(tensor, x.slotName); ok {
		return int(x.slotNode[s])
	}
	return -1
}

// InputProducers returns, for each input of the node at position i in
// order, the position of the node producing it, or -1 where ProducerPos
// gives -1. The positions were resolved while the index was built, so
// reading them hashes no name. The slice is shared with the index and
// must not be modified.
func (x *Index) InputProducers(i int) []int32 {
	return x.inProd[x.inStart[i]:x.inStart[i+1]:x.inStart[i+1]]
}

// Producer returns the node producing tensor, or nil.
func (x *Index) Producer(tensor string) *Node {
	if p := x.ProducerPos(tensor); p >= 0 {
		return x.nodes[p]
	}
	return nil
}

// Consumers returns the distinct nodes reading a produced tensor, in
// node order; nil for graph inputs, weights and unknown tensors, which
// have no CSR row. The slice is shared with the index and must not be
// modified.
func (x *Index) Consumers(tensor string) []*Node {
	if s, _, ok := x.prod.get(tensor, x.slotName); ok {
		return x.cons[x.consStart[s]:x.consStart[s+1]:x.consStart[s+1]]
	}
	return nil
}

// DupProducers returns every tensor produced twice, in node order.
func (x *Index) DupProducers() []DupProducer { return x.dups }

// UndeclaredInputs returns every input with no producer and no tensor
// record, in node and input order.
func (x *Index) UndeclaredInputs() []UndeclaredInput { return x.undeclared }

// Unsorted returns the nodes no topological order can place — those on a
// dependency cycle or downstream of one — in node order. Duplicate
// producers and undeclared inputs do not block a node: the first producer
// of a tensor feeds its readers, and an undeclared input feeds nothing.
func (x *Index) Unsorted() []*Node {
	ord := x.order()
	if len(ord) == len(x.nodes) {
		return nil
	}
	placed := make([]bool, len(x.nodes))
	for _, i := range ord {
		placed[i] = true
	}
	var out []*Node
	for i, nd := range x.nodes {
		if !placed[i] {
			out = append(out, nd)
		}
	}
	return out
}

// Order returns the node positions in a dependency-respecting order: a
// node comes after every producer of its inputs. It is the order of
// repeatedly scanning the node list and taking every node whose producers
// are all taken, so already-sorted graphs come back unchanged. An error
// is returned for duplicate producers, undeclared inputs and cycles.
func (x *Index) Order() ([]int, error) {
	ord, err := x.sorted()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ord))
	for i, p := range ord {
		out[i] = int(p)
	}
	return out, nil
}

// TopoSort returns the nodes in Order.
func (x *Index) TopoSort() ([]*Node, error) {
	ord, err := x.sorted()
	if err != nil {
		return nil, err
	}
	out := make([]*Node, len(ord))
	for i, p := range ord {
		out[i] = x.nodes[p]
	}
	return out, nil
}

// InferShapes computes the shape of every tensor of the indexed graph,
// walking the nodes in Order, which it returns. A tensor record is
// written only when its inferred shape differs from the recorded one, so
// re-inferring a shaped graph writes nothing.
func (x *Index) InferShapes() ([]int, error) {
	ord, err := x.Order()
	if err != nil {
		return nil, err
	}
	for _, i := range ord {
		if err := x.g.infer(x.nodes[i]); err != nil {
			return nil, err
		}
	}
	return ord, nil
}

// sorted is Order as int32 positions, with the index's recorded defects
// reported first, in the order a scan of the node list meets them.
func (x *Index) sorted() ([]int32, error) {
	if len(x.dups) > 0 {
		d := x.dups[0]
		return nil, fmt.Errorf("graph: tensor %q produced by both %q and %q", d.Tensor, d.First.Name, d.Node.Name)
	}
	if len(x.undeclared) > 0 {
		u := x.undeclared[0]
		return nil, fmt.Errorf("graph: node %q reads undeclared tensor %q", u.Node.Name, u.Tensor)
	}
	ord := x.order()
	if len(ord) < len(x.nodes) {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d nodes sorted)", len(ord), len(x.nodes))
	}
	return ord, nil
}

// order runs Kahn's walk and returns the positions of the nodes it places
// (all of them unless there is a cycle) in the repeated-scan order Order
// documents. A node taken in scan k unblocks a later node within the same
// scan and an earlier one in scan k+1, so a node's scan is the maximum
// over its producers p of scan(p), plus one when p sits after it. The
// walk computes every scan number in dependency order, and a counting
// sort by (scan, position) yields the order in O(V+E).
func (x *Index) order() []int32 {
	n := len(x.nodes)
	buf := make([]int32, 4*n+2)
	indeg, scan, queue, count := buf[:n:n], buf[n:2*n:2*n], buf[2*n:2*n:3*n], buf[3*n:]
	copy(indeg, x.indeg)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	last := int32(0)
	for h := 0; h < len(queue); h++ {
		p := queue[h]
		for _, c := range x.consPos[x.consStart[x.outStart[p]]:x.consStart[x.outStart[p+1]]] {
			k := scan[p]
			if p > c {
				k++
			}
			if k > scan[c] {
				scan[c] = k
				last = max(last, k)
			}
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	placed := len(queue)
	// Counting sort into queue's storage: indeg is 0 exactly for the
	// placed nodes, and count has room for every scan number (last < n).
	count = count[:last+2]
	for i, d := range indeg {
		if d == 0 {
			count[scan[i]+1]++
		}
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	ord := queue[:placed]
	for i, d := range indeg {
		if d == 0 {
			ord[count[scan[i]]] = int32(i)
			count[scan[i]]++
		}
	}
	return ord
}

// tableSeed hashes every index's tensor names; process-wide is enough,
// since the names are not adversarial keys.
var tableSeed = maphash.MakeSeed()

// table maps strings to their positions in a key list the caller owns
// (keys[v] is the key of value v), by linear probing over one array of
// value+1 entries (0: empty) sized when it is made, at most two thirds
// full. It never grows, so an index costs the same few allocations at any
// size.
type table struct {
	slots []int32
	mask  uint64
}

func newTable(keys int) table {
	size := 8
	for size < keys+keys/2 {
		size <<= 1
	}
	return table{slots: make([]int32, size), mask: uint64(size - 1)}
}

// get returns the value of key, or false and the empty slot key would
// take.
func (t table) get(key string, keys []string) (int32, uint64, bool) {
	for i := maphash.String(tableSeed, key) & t.mask; ; i = (i + 1) & t.mask {
		v := t.slots[i] - 1
		if v < 0 {
			return 0, i, false
		}
		if keys[v] == key {
			return v, i, true
		}
	}
}

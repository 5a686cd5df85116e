package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/models"
	"pimflow/internal/search"
)

// sameSort compares Index.TopoSort (and Order) with the reference walk:
// the same node sequence, or the same error text.
func sameSort(t *testing.T, what string, g *graph.Graph) error {
	t.Helper()
	x := g.Index()
	got, gerr := x.TopoSort()
	want, werr := graph.ReferenceTopoSort(g)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: TopoSort error %v, reference %v", what, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopoSort order differs from the reference", what)
	}
	ord, oerr := x.Order()
	if fmt.Sprint(oerr) != fmt.Sprint(werr) || len(ord) != len(want) {
		t.Fatalf("%s: Order = %d positions, %v", what, len(ord), oerr)
	}
	for i, p := range ord {
		if x.At(p) != want[i] {
			t.Fatalf("%s: Order[%d] is %q, want %q", what, i, x.At(p).Name, want[i].Name)
		}
	}
	return werr
}

// sameAdjacency compares the index's producer and consumer lists with the
// node-list scans they replace, for every produced tensor, and each
// node's recorded input producers with ProducerPos.
func sameAdjacency(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	x := g.Index()
	for i, n := range g.Nodes {
		prods := x.InputProducers(i)
		if len(prods) != len(n.Inputs) {
			t.Fatalf("%s: %q has %d input producers for %d inputs", what, n.Name, len(prods), len(n.Inputs))
		}
		for k, in := range n.Inputs {
			if int(prods[k]) != x.ProducerPos(in) {
				t.Fatalf("%s: input %d (%q) of %q: producer %d, ProducerPos %d", what, k, in, n.Name, prods[k], x.ProducerPos(in))
			}
		}
		for _, out := range n.Outputs {
			if p := x.Producer(out); p != graph.ReferenceProducer(g, out) {
				t.Fatalf("%s: producer of %q differs from the scan", what, out)
			}
			got, want := x.Consumers(out), graph.ReferenceConsumers(g, out)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: consumers of %q = %d nodes, scan finds %d", what, out, len(got), len(want))
			}
		}
		if x.Node(n.Name) != g.Node(n.Name) {
			t.Fatalf("%s: node %q resolves differently", what, n.Name)
		}
	}
}

// TestTopoSortMatchesReferenceOnModels sorts the five paper CNNs, raw
// and compiled under every policy.
func TestTopoSortMatchesReferenceOnModels(t *testing.T) {
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		sameSort(t, name, g)
		sameAdjacency(t, name, g)
		for pol := search.PolicyBaseline; pol <= search.PolicyPIMFlow; pol++ {
			out, _, err := search.Compile(g, search.DefaultOptions(pol))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			what := name + "/" + pol.String()
			sameSort(t, what, out)
			sameAdjacency(t, what, out)
		}
	}
}

// randomGraph builds a graph of up to 24 Identity nodes in shuffled
// insertion order. The wiring mixes every case the index must agree with
// the reference on: repeated inputs, second outputs, duplicate producers
// and node names, graph inputs and weights, undeclared inputs and, when
// forward reads are allowed, cycles.
func randomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New("random")
	g.AddInput("in", 1, 2, 2, 1)
	g.AddParam("w", 1)
	n := 1 + rng.Intn(24)
	forward := rng.Intn(4) == 0
	dups := rng.Intn(4) == 0
	out := func(i int) string { return fmt.Sprintf("t%d", i) }
	var seconds []string // second outputs produced so far
	for i := 0; i < n; i++ {
		nd := &graph.Node{Name: fmt.Sprintf("n%d", i), Op: graph.OpIdentity, Outputs: []string{out(i)}}
		if dups && i > 0 && rng.Intn(6) == 0 {
			nd.Outputs[0] = out(rng.Intn(i)) // duplicate producer
		}
		if i > 0 && rng.Intn(20) == 0 {
			nd.Name = fmt.Sprintf("n%d", rng.Intn(i)) // duplicate node name
		}
		if rng.Intn(8) == 0 {
			nd.Outputs = append(nd.Outputs, out(i)+"b")
		}
		for k := rng.Intn(4); k > 0; k-- {
			switch r := rng.Intn(100); {
			case r < 55 && i > 0:
				nd.Inputs = append(nd.Inputs, out(rng.Intn(i)))
			case r < 65 && forward:
				nd.Inputs = append(nd.Inputs, out(rng.Intn(n)))
			case r < 75:
				nd.Inputs = append(nd.Inputs, "in")
			case r < 82:
				nd.Inputs = append(nd.Inputs, "w")
			case r < 83:
				nd.Inputs = append(nd.Inputs, "ghost") // undeclared
			case r < 92 && len(nd.Inputs) > 0:
				nd.Inputs = append(nd.Inputs, nd.Inputs[len(nd.Inputs)-1])
			case len(seconds) > 0:
				nd.Inputs = append(nd.Inputs, seconds[rng.Intn(len(seconds))])
			}
		}
		if len(nd.Outputs) > 1 {
			seconds = append(seconds, nd.Outputs[1])
		}
		g.AddNode(nd)
	}
	rng.Shuffle(len(g.Nodes), func(i, j int) { g.Nodes[i], g.Nodes[j] = g.Nodes[j], g.Nodes[i] })
	return g
}

// TestTopoSortMatchesReferenceRandom compares the index with the
// reference on 3000 seeded random graphs, and checks every outcome the
// generator aims at actually occurred.
func TestTopoSortMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	outcomes := map[string]int{}
	for i := 0; i < 3000; i++ {
		g := randomGraph(rng)
		what := fmt.Sprintf("graph %d", i)
		err := sameSort(t, what, g)
		sameAdjacency(t, what, g)
		switch msg := fmt.Sprint(err); {
		case err == nil:
			outcomes["sorted"]++
		case strings.Contains(msg, "cycle"):
			outcomes["cycle"]++
		case strings.Contains(msg, "produced by both"):
			outcomes["duplicate producer"]++
		default:
			outcomes["undeclared input"]++
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, o := range []string{"sorted", "cycle", "duplicate producer", "undeclared input"} {
		if outcomes[o] < 50 {
			t.Errorf("only %d random graphs ended %q: %v", outcomes[o], o, outcomes)
		}
	}
}

// chainGraph is a shaped model of blocks conv-relu-conv(dw)-add units.
func chainGraph(blocks int) *graph.Graph {
	b := graph.NewBuilder("chain", 1, 16, 16, 8)
	b.Light = true
	for i := 0; i < blocks; i++ {
		skip := b.Cur()
		b.PointwiseConv(8).Relu6().DepthwiseConv(3, 3, 1, 1, [4]int{1, 1, 1, 1}).Add(skip)
		if i%4 == 3 {
			b.MaxPool(1, 1, [4]int{}).Concat(3, b.Cur()).PointwiseConv(8)
		}
	}
	return b.GlobalAvgPool().Flatten().Gemm(10).MustFinish()
}

// TestReinferShapedGraphAllocsFlat holds re-inference of an
// already-shaped graph to a constant allocation count: no shape is
// rewritten, so only the index and the order are allocated, whatever the
// graph's size.
func TestReinferShapedGraphAllocsFlat(t *testing.T) {
	small, large := chainGraph(8), chainGraph(40)
	allocs := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := g.InferShapes(); err != nil {
				t.Fatal(err)
			}
		})
	}
	shape := large.Tensors[large.Outputs[0]].Shape
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Errorf("re-inference allocates %v times at %d nodes but %v at %d nodes", a, len(small.Nodes), b, len(large.Nodes))
	}
	if &large.Tensors[large.Outputs[0]].Shape[0] != &shape[0] {
		t.Error("re-inference rewrote an unchanged shape")
	}
}

package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pimflow/internal/tensor"
)

func TestJSONRoundTrip(t *testing.T) {
	b := NewBuilder("rt", 1, 8, 8, 3)
	g, err := b.Conv(8, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu().
		GlobalAvgPool().Flatten().Gemm(5).Softmax().Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || len(g2.Nodes) != len(g.Nodes) {
		t.Fatalf("structure lost: %d nodes vs %d", len(g2.Nodes), len(g.Nodes))
	}
	for name, ti := range g.Tensors {
		ti2 := g2.Tensors[name]
		if ti2 == nil {
			t.Fatalf("tensor %q lost", name)
		}
		if !ti.Shape.Equal(ti2.Shape) {
			t.Fatalf("tensor %q shape %v -> %v", name, ti.Shape, ti2.Shape)
		}
		if (ti.Init == nil) != (ti2.Init == nil) {
			t.Fatalf("tensor %q initializer presence changed", name)
		}
	}
	// Functional equivalence.
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTripLight(t *testing.T) {
	b := NewBuilder("light", 1, 4, 4, 2)
	b.Light = true
	g, err := b.PointwiseConv(4).Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, ti := range g2.Tensors {
		if g.Tensors[name].IsWeight() && !ti.IsWeight() {
			t.Fatalf("param flag lost on %q", name)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid JSON, inconsistent tensor.
	bad := `{"name":"x","inputs":["in"],"outputs":["out"],` +
		`"tensors":[{"name":"w","shape":[2,2],"data":[1,2,3]}],"nodes":[]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("inconsistent tensor accepted")
	}
}

// TestReadJSONRejectsUnreadAttributes: an attribute no pass reads for
// its operator fails the load with an error naming the node and the
// attribute; a graph that loaded it would silently ignore it (a dilated
// Conv would compute an undilated convolution).
func TestReadJSONRejectsUnreadAttributes(t *testing.T) {
	conv := `{"name":"g","inputs":["x"],"outputs":["y"],
	  "tensors":[{"name":"x","shape":[1,8,8,2]},{"name":"w","shape":[3,3,2,4],"param":true}],
	  "nodes":[{"name":"c","op":"Conv","inputs":["x","w"],"outputs":["y"],"ints":{"kernel_shape":[3,3],%s}}]}`
	for _, tc := range []struct{ attr, want string }{
		{`"dilations":[2,2]`, `Conv "c": no pass reads attribute "dilations"`},
		{`"axis":[1]`, `Conv "c": no pass reads attribute "axis"`},
		{`"strides":[1]`, `Conv "c": attribute "strides" has 1 values, want 2`},
		{`"pads":[0,0,0,0]},"floats":{"alpha":0.5`, `Conv "c": no pass reads attribute "alpha"`},
		{`"pads":[0,0,0,0]},"strs":{"auto_pad":"SAME"`, `Conv "c": no pass reads attribute "auto_pad"`},
	} {
		_, err := ReadJSON(strings.NewReader(fmt.Sprintf(conv, tc.attr)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadJSON error %v, want one containing %q", tc.attr, err, tc.want)
		}
	}
	ln := `{"name":"g","inputs":["x"],"outputs":["y"],"tensors":[{"name":"x","shape":[1,4]}],
	  "nodes":[{"name":"ln","op":"LayerNorm","inputs":["x"],"outputs":["y"],"floats":{"epsilon":1e-6}}]}`
	if _, err := ReadJSON(strings.NewReader(ln)); err == nil || !strings.Contains(err.Error(), `no pass reads attribute "epsilon"`) {
		t.Errorf("LayerNorm epsilon: ReadJSON error %v", err)
	}
}

func TestDOTOutput(t *testing.T) {
	b := NewBuilder("dotty", 1, 4, 4, 2)
	g, err := b.PointwiseConv(4).Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes[0].Exec.Device = DevicePIM
	g.Nodes[1].Elided = true
	dot := g.DOT()
	for _, want := range []string{"digraph", "Conv", "Relu", "->", "dashed", "#b7e1cd"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestJSONPreservesSemantics(t *testing.T) {
	b := NewBuilder("sem", 1, 6, 6, 2)
	g, err := b.Conv(4, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu().Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w1 := g.Tensors[g.Nodes[0].Inputs[1]].Init
	w2 := g2.Tensors[g2.Nodes[0].Inputs[1]].Init
	if w1 == nil || w2 == nil || !tensor.AllClose(w1, w2, 0) {
		t.Fatal("weight data changed in round trip")
	}
}

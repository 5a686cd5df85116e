package graph_test

import (
	"bytes"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/verify"
)

// FuzzReadJSON holds ReadJSON to its documented contract: any document it
// accepts is a graph that satisfies the verify package's default
// invariants, and round-trips through WriteJSON. The loader is the trust
// boundary for on-disk models, so "loads without error" must imply "safe
// to hand to every downstream pass".
func FuzzReadJSON(f *testing.F) {
	// A well-formed conv+gemm model, via the builder's own serializer.
	b := graph.NewBuilder("seed", 1, 8, 8, 8)
	b.Conv(16, 3, 3, 1, 1, [4]int{1, 1, 1, 1}, 1).Relu().GlobalAvgPool().Flatten().Gemm(10)
	g := b.MustFinish()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Handwritten documents probing the loader's edges: valid minimal
	// graphs, missing tensor records, bad attrs, malformed shapes.
	for _, seed := range []string{
		`{}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"id","op":"Identity","inputs":["x"],"outputs":["y"]}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"c","op":"Concat","inputs":["x","x"],"outputs":["y"],
		            "ints":{"axis":[3]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"c","op":"Concat","inputs":["x","x"],"outputs":["y"],
		            "ints":{"axis":[9]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"p","op":"Pad","inputs":["x"],"outputs":["y"],
		            "ints":{"pads":[0,-9,0,0,0,0,0,0]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,2]},{"name":"w","shape":[2,3],"param":true,
		              "data":[1,2,3,4,5,6]}],
		  "nodes":[{"name":"mm","op":"MatMul","inputs":["x","w"],"outputs":["y"]}]}`,
		`{"name":"g","inputs":["x"],"outputs":["x"],"tensors":[{"name":"x","shape":[0]}]}`,
		`{"name":"g","nodes":[{"name":"n","op":"Relu","inputs":["ghost"],"outputs":["y"]}]}`,
		`{"name":"g","nodes":[{"name":"n","op":"NoSuchOp","inputs":[],"outputs":["y"]}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"a","op":"Relu","inputs":["y"],"outputs":["y2"]},
		           {"name":"b","op":"Relu","inputs":["y2"],"outputs":["y"]}]}`,
		// Malformed conv and pooling attributes that once panicked inside
		// shape inference (a zero stride divides by zero; short strides or
		// pads index out of range) instead of failing the load.
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]},{"name":"w","shape":[1,1,2,2],"param":true}],
		  "nodes":[{"name":"c","op":"Conv","inputs":["x","w"],"outputs":["y"],
		            "ints":{"kernel_shape":[1,1],"strides":[0,1]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"p","op":"MaxPool","inputs":["x"],"outputs":["y"],
		            "ints":{"kernel_shape":[2,2],"strides":[0,0]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"p","op":"MaxPool","inputs":["x"],"outputs":["y"],
		            "ints":{"kernel_shape":[2,2],"strides":[1]}}]}`,
		`{"name":"g","inputs":["x"],"outputs":["y"],
		  "tensors":[{"name":"x","shape":[1,4,4,2]}],
		  "nodes":[{"name":"p","op":"MaxPool","inputs":["x"],"outputs":["y"],
		            "ints":{"kernel_shape":[2,2],"pads":[1]}}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are out of contract
		}
		if diags := verify.Graph(g); len(diags) > 0 {
			t.Fatalf("ReadJSON accepted a graph that fails verification:\ninput: %s\ndiags: %v",
				data, diags)
		}
		var out bytes.Buffer
		if err := g.WriteJSON(&out); err != nil {
			t.Fatalf("WriteJSON after successful load: %v", err)
		}
		g2, err := graph.ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round-trip reload failed: %v\nreserialized: %s", err, out.Bytes())
		}
		if diags := verify.Graph(g2); len(diags) > 0 {
			t.Fatalf("round-tripped graph fails verification: %v", diags)
		}
	})
}

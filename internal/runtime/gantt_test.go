package runtime

import (
	"strings"
	"testing"

	"pimflow/internal/graph"
	"pimflow/internal/transform"
)

func TestRenderGantt(t *testing.T) {
	b := graph.NewBuilder("gt", 1, 14, 14, 576)
	b.Light = true
	g, err := b.PointwiseConv(160).Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := transform.SplitMDDP(g, g.Nodes[0].Name, 0.5); err != nil {
		t.Fatal(err)
	}
	transform.ElideDataMovement(g)
	rep, err := Execute(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.RenderGantt(60)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines:\n%s", out)
	}
	// Both devices must show busy cells (the halves overlap).
	for _, l := range lines[1:] {
		if !strings.Contains(l, "#") && !strings.Contains(l, "+") {
			t.Fatalf("idle track: %q", l)
		}
	}
	// Degenerate inputs.
	var nilRep *Report
	if nilRep.RenderGantt(60) != "" {
		t.Fatal("nil report rendered")
	}
	if rep.RenderGantt(5) != "" {
		t.Fatal("tiny width rendered")
	}
}

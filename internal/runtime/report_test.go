package runtime

import (
	"testing"

	"pimflow/internal/graph"
)

// goldenReport fabricates a small deterministic schedule: a GPU conv, an
// overlapping PIM conv (an MD-DP pair), an elided concat, and a fused
// zero-duration activation.
func goldenReport() *Report {
	return &Report{
		TotalCycles: 3000,
		Seconds:     3e-6,
		GPUBusy:     2000,
		PIMBusy:     1500,
		MoveCycles:  100,
		Nodes: []NodeReport{
			{Name: "conv1_gpu", Op: graph.OpConv, Device: graph.DeviceGPU, Mode: graph.ModeMDDP, Start: 0, End: 2000},
			{Name: "conv1_pim", Op: graph.OpConv, Device: graph.DevicePIM, Mode: graph.ModeMDDP, Start: 0, End: 1500},
			{Name: "conv1_concat", Op: graph.OpConcat, Device: graph.DeviceGPU, Mode: graph.ModeSerial, Start: 2000, End: 2000, Elided: true},
			{Name: "relu1", Op: graph.OpRelu, Device: graph.DeviceGPU, Mode: graph.ModeSerial, Start: 2000, End: 2000},
			{Name: "fc", Op: graph.OpGemm, Device: graph.DeviceGPU, Mode: graph.ModeSerial, Start: 2100, End: 3000, MoveCycles: 100},
		},
	}
}

func TestNodeByName(t *testing.T) {
	rep := goldenReport()
	n := rep.NodeByName("conv1_pim")
	if n == nil {
		t.Fatal("NodeByName(conv1_pim) = nil")
	}
	if n.Device != graph.DevicePIM || n.End != 1500 {
		t.Errorf("wrong node returned: %+v", n)
	}
	// The pointer aliases the report so callers can annotate in place.
	n.End = 1600
	if rep.Nodes[1].End != 1600 {
		t.Error("NodeByName result does not alias the report slice")
	}
	if rep.NodeByName("nope") != nil {
		t.Error("NodeByName(nope) != nil")
	}
}

func TestNodeReportDuration(t *testing.T) {
	for _, tc := range []struct {
		start, end, want int64
	}{
		{0, 2000, 2000},
		{2000, 2000, 0},
		{2100, 3000, 900},
	} {
		if got := (NodeReport{Start: tc.start, End: tc.end}).Duration(); got != tc.want {
			t.Errorf("Duration(%d,%d) = %d, want %d", tc.start, tc.end, got, tc.want)
		}
	}
}

// Package verify is PIMFlow's verification layer: a graph-IR invariant
// checker (Graph), a PIM command-stream protocol linter (Trace /
// Workload), and a serving-schedule certificate checker (Schedule). The
// system's correctness rests on contracts that the rest of the test
// suite only exercises by example:
//
//   - Every graph transformation pass (MD-DP split, pipelining, BN fold,
//     elision, DCE) must preserve IR well-formedness: topological order
//     exists, names are unique, shapes re-infer to what is declared, MD-DP
//     halves tile the original output, pipeline chunks only consume
//     earlier chunks, and no dead nodes survive DCE.
//   - Every generated PIM command trace must obey the Newton/AiM protocol
//     (paper §4.1): a GWRITE fills the global buffer before any COMP
//     consumes it, a G_ACT opens a weight row before COMP streams column
//     I/Os, READRES drains accumulated results after COMP, and the
//     per-channel command distribution covers the whole workload.
//   - Every certified serving schedule must be physically realizable:
//     concurrent leases fit the machine's channel groups, the completion
//     frontier only advances, batches obey their model's policy, and
//     request stage splits sum exactly (see schedule.go).
//
// Checkers return structured Diagnostics carrying stable rule IDs (the
// catalogue is in Rules and documented in DESIGN.md), so tests can assert
// on specific violations, the CLIs can print them, and the observability
// layer can count them.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"pimflow/internal/obs"
	"pimflow/internal/par"
)

// Graph-IR rule IDs (Tier A).
const (
	RuleGraphName          = "GR-NAME"           // node has no name
	RuleGraphNameDup       = "GR-NAME-DUP"       // duplicate node name
	RuleGraphOp            = "GR-OP"             // unknown operator
	RuleGraphOutNone       = "GR-OUT-NONE"       // node has no outputs
	RuleGraphArity         = "GR-ARITY"          // too few inputs for the operator
	RuleGraphTensorName    = "GR-TENSOR-NAME"    // empty tensor name referenced
	RuleGraphTensorUndecl  = "GR-TENSOR-UNDECL"  // node reads an undeclared, unproduced tensor
	RuleGraphProducerDup   = "GR-PRODUCER-DUP"   // tensor produced by more than one node
	RuleGraphCycle         = "GR-CYCLE"          // dependency cycle
	RuleGraphInputUndecl   = "GR-IO-INPUT"       // graph input without a tensor record
	RuleGraphOutputUndecl  = "GR-IO-OUTPUT"      // graph output without a tensor record
	RuleGraphShapeDim      = "GR-SHAPE-DIM"      // declared shape with a non-positive dimension
	RuleGraphInfer         = "GR-INFER"          // shape inference failed
	RuleGraphShapeMismatch = "GR-SHAPE-MISMATCH" // declared shape differs from re-inferred shape
	RuleGraphMDDPPair      = "GR-MDDP-PAIR"      // malformed MD-DP half pairing
	RuleGraphMDDPCover     = "GR-MDDP-COVER"     // MD-DP halves do not tile the original output
	RuleGraphPipeHint      = "GR-PIPE-HINT"      // invalid or inconsistent pipeline stage/part hints
	RuleGraphPipeParts     = "GR-PIPE-PARTS"     // pipeline group missing stage chunks
	RuleGraphPipeOrder     = "GR-PIPE-ORDER"     // pipeline chunk consumes a later chunk
	RuleGraphDead          = "GR-DEAD"           // dead node (post-DCE invariant)
)

// PIM command-stream rule IDs (Tier B).
const (
	RuleTraceEmpty      = "TR-EMPTY"       // trace has no channels
	RuleTraceChannel    = "TR-CHANNEL"     // channel id outside the configuration
	RuleTraceChannelDup = "TR-CHANNEL-DUP" // duplicate channel stream
	RuleTraceKind       = "TR-KIND"        // unknown command kind
	RuleTraceGWBufs     = "TR-GW-BUFS"     // multi-buffer GWRITE variant exceeds configured buffers
	RuleTraceGWOverflow = "TR-GW-OVERFLOW" // GWRITE larger than the global-buffer capacity
	RuleTraceBursts     = "TR-BURSTS"      // non-positive data-burst count
	RuleTraceCompNoBuf  = "TR-COMP-NOBUF"  // COMP before any GWRITE filled the buffer
	RuleTraceCompNoAct  = "TR-COMP-NOACT"  // COMP before any G_ACT opened a row
	RuleTraceCompCols   = "TR-COMP-COLS"   // COMP column I/O count outside (0, ColumnIOsPerRow]
	RuleTraceRRNoComp   = "TR-RR-NOCOMP"   // READRES with nothing accumulated since the GWRITE
	RuleTraceDrain      = "TR-DRAIN"       // channel ends with undrained COMP results
	RuleTraceCover      = "TR-COVER"       // trace does not cover the workload
)

// Rule is one documented invariant.
type Rule struct {
	ID  string
	Doc string
}

// Rules returns the full rule catalogue in a stable order. Every ID has a
// negative-input test in this package proving the checker catches it, and
// a matching entry in DESIGN.md.
func Rules() []Rule {
	return []Rule{
		{RuleGraphName, "every node has a non-empty name"},
		{RuleGraphNameDup, "node names are unique"},
		{RuleGraphOp, "every node uses a known operator"},
		{RuleGraphOutNone, "every node has at least one output"},
		{RuleGraphArity, "every node has the operator's minimum input count"},
		{RuleGraphTensorName, "node inputs and outputs name tensors non-emptily"},
		{RuleGraphTensorUndecl, "every node input is produced or declared (no dangling inputs)"},
		{RuleGraphProducerDup, "every tensor has at most one producer"},
		{RuleGraphCycle, "the dataflow graph is acyclic"},
		{RuleGraphInputUndecl, "every graph input has a tensor record"},
		{RuleGraphOutputUndecl, "every graph output has a tensor record"},
		{RuleGraphShapeDim, "declared shapes have positive dimensions"},
		{RuleGraphInfer, "shape inference succeeds on the whole graph"},
		{RuleGraphShapeMismatch, "declared shapes agree with re-inferred shapes"},
		{RuleGraphMDDPPair, "MD-DP halves pair up: one GPU + one PIM half, equal ratio, merged by one height/feature concat"},
		{RuleGraphMDDPCover, "MD-DP conv halves slice the source so their outputs tile the original output rows"},
		{RuleGraphPipeHint, "pipeline hints are well-formed and consistent within a group"},
		{RuleGraphPipeParts, "every pipeline stage contributes all of its chunks"},
		{RuleGraphPipeOrder, "pipeline chunk (s, p) only consumes chunks (s' < s, p' <= p)"},
		{RuleGraphDead, "no dead nodes survive dead-code elimination"},
		{RuleTraceEmpty, "a PIM trace has at least one channel stream"},
		{RuleTraceChannel, "channel ids lie inside the configured channel count"},
		{RuleTraceChannelDup, "each channel appears at most once in a trace"},
		{RuleTraceKind, "every command kind is known"},
		{RuleTraceGWBufs, "GWRITE_2/GWRITE_4 require that many configured global buffers"},
		{RuleTraceGWOverflow, "one GWRITE fits the channel's global-buffer capacity"},
		{RuleTraceBursts, "GWRITE moves at least one burst and READRES drains at least one burst"},
		{RuleTraceCompNoBuf, "GWRITE fills the global buffer before any COMP consumes it"},
		{RuleTraceCompNoAct, "G_ACT opens a weight row before any COMP streams column I/Os"},
		{RuleTraceCompCols, "COMP streams between 1 and ColumnIOsPerRow column I/Os"},
		{RuleTraceRRNoComp, "READRES only drains after a COMP accumulated into the latches"},
		{RuleTraceDrain, "every COMP's results are drained by a READRES before the channel ends"},
		{RuleTraceCover, "the per-channel distribution covers the full workload"},
		{RuleSchedDemand, "every certified lease has a non-empty window, a unique id, and a demand the machine can hold"},
		{RuleSchedOverlap, "concurrent leases never oversubscribe a channel group at any virtual instant"},
		{RuleSchedFrontier, "the completion frontier is monotone and covers every released lease's end"},
		{RuleSchedLease, "every certified request runs inside its own model's recorded lease, at or after its arrival"},
		{RuleSchedWindow, "every batch matches its lease's size and respects the model's MaxBatch and virtual window"},
		{RuleSchedPartition, "every request's batch-wait + lease-wait + execute stages partition its latency exactly"},
		{RuleFleetMachine, "fleet machines have unique names and positive channel groups, and every placement and hop names one"},
		{RuleFleetCapacity, "every placement fits its machine alone, and active non-time-shared placements never sum past either channel group"},
		{RuleFleetReplica, "a model's active replicas sit on distinct machines and share one channel-group demand"},
		{RuleFleetNode, "inference-graph nodes are well-typed with well-formed steps (one target each, positive splitter weights, one switch default, model-only ensembles)"},
		{RuleFleetAcyclic, "inference-graph node references are acyclic and the root node exists"},
		{RuleFleetRoute, "every routed hop rides a recorded placement and graph node, with a non-inverted window at or after its gating hop's completion"},
		{RulePlanShape, "plan certificates are structurally sound: in-range spans, non-negative times, at least one mode per node"},
		{RulePlanChoice, "a plan's chosen pipeline spans are pairwise disjoint"},
		{RulePlanBest, "every node's best single-node time is the minimum of its profiled modes"},
		{RulePlanTotal, "the plan's claimed total re-derives exactly from its chosen spans and uncovered nodes"},
		{RulePlanOptimal, "no assignment of modes and spans beats the plan total (exact branch-and-bound cross-check)"},
	}
}

// Diagnostic is one rule violation with enough context to locate it: the
// node/tensor for graph rules, the channel/command index for trace rules.
type Diagnostic struct {
	Rule    string `json:"rule"`
	Node    string `json:"node,omitempty"`
	Tensor  string `json:"tensor,omitempty"`
	Channel int    `json:"channel"` // -1 when not a trace diagnostic
	Index   int    `json:"index"`   // command index; -1 when not a trace diagnostic
	Command string `json:"command,omitempty"`
	Msg     string `json:"msg"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", d.Rule)
	if d.Node != "" {
		fmt.Fprintf(&b, " node %q", d.Node)
	}
	if d.Tensor != "" {
		fmt.Fprintf(&b, " tensor %q", d.Tensor)
	}
	if d.Channel >= 0 {
		fmt.Fprintf(&b, " channel %d", d.Channel)
	}
	if d.Index >= 0 {
		fmt.Fprintf(&b, " cmd %d", d.Index)
	}
	if d.Command != "" {
		fmt.Fprintf(&b, " (%s)", d.Command)
	}
	fmt.Fprintf(&b, ": %s", d.Msg)
	return b.String()
}

// graphDiag builds a graph-tier diagnostic (no channel/index context).
func graphDiag(rule, node, tensor, msg string) Diagnostic {
	return Diagnostic{Rule: rule, Node: node, Tensor: tensor, Channel: -1, Index: -1, Msg: msg}
}

// runTasks runs task(0..n-1), independent checks that never fail, on
// the worker pool and returns their diagnostics by task index, so a
// caller assembles them in the order a serial run appends them.
func runTasks(n int, task func(i int) []Diagnostic) [][]Diagnostic {
	parts := make([][]Diagnostic, n)
	_ = par.ForEach(n, func(i int) error {
		parts[i] = task(i)
		return nil
	})
	return parts
}

// AsError folds diagnostics into a single error, or nil when the list is
// empty. Long lists are truncated; the count is always exact.
func AsError(diags []Diagnostic) error {
	if len(diags) == 0 {
		return nil
	}
	const max = 10
	var b strings.Builder
	fmt.Fprintf(&b, "verify: %d violation(s):", len(diags))
	for i, d := range diags {
		if i == max {
			fmt.Fprintf(&b, "\n  ... and %d more", len(diags)-max)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Record counts diagnostics into a metrics registry: one total counter
// plus one per rule ID, so dashboards can watch specific invariants. A nil
// registry is a no-op, matching the obs conventions.
func Record(m *obs.Metrics, diags []Diagnostic) {
	if m == nil || len(diags) == 0 {
		return
	}
	m.Add("verify.violations", int64(len(diags)))
	byRule := map[string]int64{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	ids := make([]string, 0, len(byRule))
	for id := range byRule {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.Add(obs.LabeledKey("verify.violations", "rule", id), byRule[id])
	}
}

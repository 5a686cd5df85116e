package pim

// Sink consumes a PIM command stream as it is generated, one channel at a
// time: BeginChannel opens channel ch's stream, and each Emit appends a
// block of consecutive commands to it. The producer (codegen.Stream)
// emits channels in ascending order and never interleaves them, so
// implementations need no buffering. The producer reuses the array
// behind cmds for its next block, so a sink must neither keep nor modify
// cmds after Emit returns; one that needs the commands later copies
// them. Sinks latch errors internally (an Emit after a failure is a
// no-op) and report them from their terminal call, keeping the hot path
// free of error-return plumbing.
type Sink interface {
	BeginChannel(ch int)
	Emit(cmds []Command)
}

// TraceSink materializes the stream into a Trace — the adapter used
// wherever a command trace is genuinely consumed (dump listings,
// Chrome-trace event recording).
type TraceSink struct {
	Trace Trace
}

// BeginChannel opens a new channel stream.
func (s *TraceSink) BeginChannel(ch int) {
	s.Trace.Channels = append(s.Trace.Channels, ChannelTrace{Channel: ch})
}

// Emit appends a copy of the block to the channel opened last.
func (s *TraceSink) Emit(cmds []Command) {
	ct := &s.Trace.Channels[len(s.Trace.Channels)-1]
	ct.Commands = append(ct.Commands, cmds...)
}

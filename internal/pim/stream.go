package pim

// Sink consumes a PIM command stream as it is generated, one channel at a
// time: BeginChannel opens channel ch's stream, Emit appends to it. The
// producer (codegen.Stream) emits channels in ascending order and never
// interleaves them, so implementations need no buffering. Sinks latch
// errors internally (an Emit after a failure is a no-op) and report them
// from their terminal call, keeping the per-command hot path free of
// error-return plumbing.
type Sink interface {
	BeginChannel(ch int)
	Emit(cmd Command)
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

// Emit appends one command to the channel opened last.
func (s *TraceSink) Emit(cmd Command) {
	ct := &s.Trace.Channels[len(s.Trace.Channels)-1]
	ct.Commands = append(ct.Commands, cmd)
}

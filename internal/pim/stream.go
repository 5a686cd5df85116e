package pim

import "fmt"

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

// streamChannel is one finished channel's accumulated result.
type streamChannel struct {
	id     int
	drain  int64
	busy   int64
	counts Counts
}

// StreamSim is a Sink that simulates the command stream as it arrives,
// fusing command generation into the timing engine: no trace is ever
// materialized, and a probe allocates O(channels) instead of O(commands).
// The per-channel scratch survives Reset, so a pooled or caller-held
// StreamSim makes repeated probes (the mode search's Algorithm 1 loop)
// allocation-free apart from the returned Stats. Not safe for concurrent
// use; pool instances instead of sharing one.
type StreamSim struct {
	cfg      Config
	cs       ChannelSim
	open     bool
	channels []streamChannel
	err      error
}

// NewStreamSim returns a streaming simulator for the configuration.
func NewStreamSim(cfg Config) (*StreamSim, error) {
	s := &StreamSim{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset validates the configuration and clears the simulator for a new
// stream, retaining internal scratch capacity.
func (s *StreamSim) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	s.open = false
	s.channels = s.channels[:0]
	s.err = nil
	return nil
}

// BeginChannel finishes the channel in flight and starts simulating a new
// one.
func (s *StreamSim) BeginChannel(ch int) {
	s.finishChannel()
	if s.err != nil {
		return
	}
	if len(s.channels) >= s.cfg.Channels {
		s.err = fmt.Errorf("pim: trace uses %d channels, config has %d", len(s.channels)+1, s.cfg.Channels)
		return
	}
	s.cs.Reset(s.cfg, ch)
	s.channels = append(s.channels, streamChannel{id: ch})
	s.open = true
}

// Emit feeds one command through the current channel's stepper.
func (s *StreamSim) Emit(cmd Command) {
	if s.err != nil {
		return
	}
	if !s.open {
		s.err = fmt.Errorf("pim: Emit before BeginChannel")
		return
	}
	if _, _, err := s.cs.Feed(cmd); err != nil {
		s.err = err
	}
}

// finishChannel folds the in-flight stepper state into its channel slot.
func (s *StreamSim) finishChannel() {
	if !s.open || s.err != nil {
		return
	}
	c := &s.channels[len(s.channels)-1]
	c.drain = s.cs.Drain()
	c.busy = s.cs.Busy()
	c.counts = s.cs.Counts()
	s.open = false
}

// Finish closes the stream and returns the aggregate statistics — the
// same Stats, field for field, that Simulate computes on the materialized
// equivalent of the stream. The simulator must be Reset before reuse.
func (s *StreamSim) Finish() (Stats, error) {
	s.finishChannel()
	if s.err != nil {
		return Stats{}, s.err
	}
	if len(s.channels) == 0 {
		return Stats{}, fmt.Errorf("pim: empty trace")
	}
	stats := Stats{
		PerChannel:       make([]int64, len(s.channels)),
		PerChannelBusy:   make([]int64, len(s.channels)),
		PerChannelCounts: make([]Counts, len(s.channels)),
	}
	var busySum float64
	for i := range s.channels {
		c := &s.channels[i]
		stats.PerChannel[i] = c.drain
		stats.PerChannelBusy[i] = c.busy
		if c.drain > stats.Cycles {
			stats.Cycles = c.drain
		}
		if c.drain > 0 {
			busySum += float64(c.busy) / float64(c.drain)
		}
		stats.PerChannelCounts[i] = c.counts
		stats.Counts.Add(c.counts)
	}
	stats.BusyFraction = busySum / float64(len(s.channels))
	stats.Counts.MACs = stats.Counts.ColIOs * int64(s.cfg.BanksPerChannel) * int64(s.cfg.MultsPerBank)
	stats.Seconds = s.cfg.CyclesToSeconds(stats.Cycles)
	return stats, nil
}

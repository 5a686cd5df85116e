package pim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// streamChannel is one finished channel's accumulated result.
type streamChannel struct {
	id     int
	drain  int64
	busy   int64
	counts Counts
}

// StreamSim is a Sink that simulates the command stream as it arrives,
// one ChannelSim per channel in turn, with no trace materialized. The
// properties below hold it to Simulate field for field, which pins
// ChannelSim's streaming contract; the timing probe itself
// (codegen.TimeWorkload) feeds ChannelSim through codegen's
// fast-forward walker instead. The per-channel scratch survives Reset.
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

// Emit feeds a block of commands through the current channel's stepper.
func (s *StreamSim) Emit(cmds []Command) {
	for _, cmd := range cmds {
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

// randomTrace builds a protocol-shaped multi-channel trace from fuzz
// bytes: every channel gets GWRITE / G_ACT / COMP / READRES rounds with
// varying bursts, cols, and row reuse.
func randomTrace(seed []byte) *Trace {
	at := func(i int) int {
		if len(seed) == 0 {
			return 1
		}
		return int(seed[i%len(seed)])
	}
	nCh := at(0)%4 + 1
	tr := &Trace{}
	for ch := 0; ch < nCh; ch++ {
		ct := ChannelTrace{Channel: ch}
		rounds := at(ch+1)%5 + 1
		for r := 0; r < rounds; r++ {
			base := ch*7 + r*3
			ct.Commands = append(ct.Commands,
				Command{Kind: Kind(at(base) % 4), Bursts: at(base+1)%32 + 1}, // some GWRITE variant
				Command{Kind: KindGAct, NewRow: at(base+2)%2 == 0},
				Command{Kind: KindComp, Cols: at(base+3)%32 + 1},
				Command{Kind: KindReadRes, Bursts: at(base+4)%4 + 1},
			)
		}
		tr.Channels = append(tr.Channels, ct)
	}
	return tr
}

// feedTrace drives a StreamSim with a materialized trace, each channel
// cut into blocks of one, two and three commands in turn.
func feedTrace(s *StreamSim, tr *Trace) {
	for _, ct := range tr.Channels {
		s.BeginChannel(ct.Channel)
		for i, n := 0, 1; i < len(ct.Commands); i, n = i+n, n%3+1 {
			s.Emit(ct.Commands[i:min(i+n, len(ct.Commands))])
		}
	}
}

// Property: feeding any protocol-shaped trace through StreamSim yields
// Stats identical to Simulate on the materialized trace, for every
// configuration variant that changes stepper behavior.
func TestPropertyStreamSimMatchesSimulate(t *testing.T) {
	cfgs := []Config{DefaultConfig(), NewtonConfig()}
	pp := DefaultConfig()
	pp.BankPingPong = true
	refresh := DefaultConfig()
	refresh.ModelRefresh = true
	cfgs = append(cfgs, pp, refresh)

	f := func(seed []byte) bool {
		tr := randomTrace(seed)
		for _, cfg := range cfgs {
			want, err := Simulate(cfg, tr)
			if err != nil {
				return false
			}
			sim, err := NewStreamSim(cfg)
			if err != nil {
				return false
			}
			feedTrace(sim, tr)
			got, err := sim.Finish()
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("diverged:\n got %+v\nwant %+v", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Reset must clear latched errors and channel state so a pooled StreamSim
// is indistinguishable from a fresh one.
func TestStreamSimResetReuse(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := NewStreamSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poison: emit without a channel, latching an error.
	sim.Emit([]Command{{Kind: KindComp, Cols: 1}})
	if _, err := sim.Finish(); err == nil {
		t.Fatal("Emit before BeginChannel accepted")
	}
	tr := randomTrace([]byte{9, 4, 7, 1, 8})
	want, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		feedTrace(sim, tr)
		got, err := sim.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestStreamSimErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.GlobalBufs = 3
	if _, err := NewStreamSim(bad); err == nil {
		t.Error("invalid config accepted")
	}
	sim, err := NewStreamSim(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Finish(); err == nil {
		t.Error("empty stream accepted")
	}
	// A command the stepper rejects latches its error until Finish.
	if err := sim.Reset(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	sim.BeginChannel(0)
	sim.Emit([]Command{{Kind: KindComp, Cols: 0}, {Kind: KindComp, Cols: 5}}) // the second is ignored after the latch
	if _, err := sim.Finish(); err == nil {
		t.Error("invalid COMP accepted")
	}
	// More channel streams than the config has channels.
	cfg := DefaultConfig()
	cfg.Channels = 1
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	sim.BeginChannel(0)
	sim.Emit([]Command{{Kind: KindComp, Cols: 1}})
	sim.BeginChannel(1)
	if _, err := sim.Finish(); err == nil {
		t.Error("channel overflow accepted")
	}
}

// TraceSink appends every block to the open channel and keeps a copy, so
// a producer may overwrite its block once Emit returns.
func TestTraceSinkMaterializes(t *testing.T) {
	var ts TraceSink
	block := []Command{{Kind: KindGWrite, Bursts: 2}}
	ts.BeginChannel(3)
	ts.Emit(block)
	block[0] = Command{Kind: KindGAct, NewRow: true}
	ts.BeginChannel(5)
	ts.Emit(block)
	block[0] = Command{Kind: KindComp, Cols: 4}
	ts.Emit(block)
	block[0] = Command{Kind: KindReadRes, Bursts: 9}
	want := Trace{Channels: []ChannelTrace{
		{Channel: 3, Commands: []Command{{Kind: KindGWrite, Bursts: 2}}},
		{Channel: 5, Commands: []Command{
			{Kind: KindGAct, NewRow: true},
			{Kind: KindComp, Cols: 4},
		}},
	}}
	if !reflect.DeepEqual(ts.Trace, want) {
		t.Fatalf("trace %+v, want %+v", ts.Trace, want)
	}
}

// The stepper's Feed must agree with the batch simulator's event windows
// command for command.
func TestChannelSimFeedWindowsMatchEvents(t *testing.T) {
	cfg := DefaultConfig()
	tr := randomTrace([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	_, events, err := SimulateEvents(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var cs ChannelSim
	for _, ct := range tr.Channels {
		cs.Reset(cfg, ct.Channel)
		for _, cmd := range ct.Commands {
			start, end, err := cs.Feed(cmd)
			if err != nil {
				t.Fatal(err)
			}
			ev := events[i]
			if ev.Start != start || ev.End != end || ev.Channel != ct.Channel || ev.Kind != cmd.Kind {
				t.Fatalf("event %d: Feed window [%d,%d] vs SimulateEvents %+v", i, start, end, ev)
			}
			i++
		}
	}
	if i != len(events) {
		t.Fatalf("walked %d commands, %d events", i, len(events))
	}
}

func TestChannelSimFeedErrors(t *testing.T) {
	var cs ChannelSim
	cs.Reset(DefaultConfig(), 7)
	if _, _, err := cs.Feed(Command{Kind: KindGWrite, Bursts: -1}); err == nil {
		t.Error("negative bursts accepted")
	}
	cs.Reset(DefaultConfig(), 7)
	if _, _, err := cs.Feed(Command{Kind: KindComp, Cols: 0}); err == nil {
		t.Error("zero-col COMP accepted")
	}
	cs.Reset(DefaultConfig(), 7)
	if _, _, err := cs.Feed(Command{Kind: Kind(200)}); err == nil {
		t.Error("unknown kind accepted")
	}
}

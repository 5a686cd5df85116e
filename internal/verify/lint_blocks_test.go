package verify

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/pim"
)

// channelCounter forwards a stream to the linter and sums the commands
// its walk consumed in the channels closed so far.
type channelCounter struct {
	*linter
	n int
}

func (c *channelCounter) BeginChannel(ch int) {
	c.n += c.next
	c.linter.BeginChannel(ch)
}

// LintedCommands lints the workload's stream as Workload does and
// returns how many commands the linter consumed, with its protocol
// diagnostics.
func LintedCommands(w codegen.Workload, cfg pim.Config, opts codegen.Opts) (int, []Diagnostic, error) {
	c := channelCounter{linter: newLinter(cfg)}
	if err := codegen.Stream(w, cfg, opts, &c); err != nil {
		return 0, nil, err
	}
	diags := c.finish()
	return c.n + c.next, diags, nil
}

// lintBlockConfigs are the configurations a FuzzLintBlocks input picks
// from with its first byte: the default (16 channels, 4 buffers), the
// single-buffer Newton baseline, and a two-channel, two-buffer one in
// which channel 2 lies outside the configuration.
func lintBlockConfigs() []pim.Config {
	small := pim.DefaultConfig()
	small.Channels, small.GlobalBufs = 2, 2
	return []pim.Config{pim.DefaultConfig(), pim.NewtonConfig(), small}
}

// Each command of a FuzzLintBlocks input is four bytes. The first holds
// the kind (bits 0-2, 7 being unknown), NewRow (bit 3), whether a block
// ends after the command (bit 4), whether a new channel stream begins
// before it (bit 5) and that channel's id (bits 6-7, modulo 3). The
// next two are Bursts as a little-endian int16, the last Cols as an
// int8. At most three channel streams are begun.
const (
	fuzzNewRow = 1 << 3
	fuzzCut    = 1 << 4
	fuzzNewCh  = 1 << 5
)

// decodeLintBlocks turns a FuzzLintBlocks input into a configuration, a
// trace and, per channel, the ends of its blocks.
func decodeLintBlocks(data []byte) (pim.Config, *pim.Trace, [][]int) {
	cfgs := lintBlockConfigs()
	if len(data) == 0 {
		return cfgs[0], &pim.Trace{}, nil
	}
	cfg := cfgs[int(data[0])%len(cfgs)]
	tr := &pim.Trace{}
	var cuts [][]int
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		b := data[0]
		if len(tr.Channels) == 0 || b&fuzzNewCh != 0 && len(tr.Channels) < 3 {
			tr.Channels = append(tr.Channels, pim.ChannelTrace{Channel: int(b>>6) % 3})
			cuts = append(cuts, nil)
		}
		ct := &tr.Channels[len(tr.Channels)-1]
		ct.Commands = append(ct.Commands, pim.Command{
			Kind:   pim.Kind(b & 7),
			NewRow: b&fuzzNewRow != 0,
			Bursts: int(int16(uint16(data[1]) | uint16(data[2])<<8)),
			Cols:   int(int8(data[3])),
		})
		if b&fuzzCut != 0 {
			cuts[len(cuts)-1] = append(cuts[len(cuts)-1], len(ct.Commands))
		}
	}
	return cfg, tr, cuts
}

// encodeLintBlocks writes a seed from a configuration index and a
// program of space-separated tokens: "#c" begins channel c, "|" ends a
// block, "A" is a G_ACT, "K" an unknown kind, and "Wn", "W2:n", "W4:n",
// "Sn", "Cn" and "Rn" are a GWRITE, GWRITE_2, GWRITE_4, strided GWRITE,
// COMP or READRES with n bursts or columns.
func encodeLintBlocks(cfg byte, prog string) []byte {
	data := []byte{cfg}
	var flags byte
	for _, tok := range strings.Fields(prog) {
		switch tok[0] {
		case '#':
			flags |= fuzzNewCh | byte(tok[1]-'0')<<6
			continue
		case '|':
			if len(data) > 1 {
				data[len(data)-4] |= fuzzCut
			}
			continue
		}
		kind, arg := pim.KindGAct, tok[1:]
		switch {
		case tok == "A":
			flags |= fuzzNewRow
		case tok == "K":
			kind = 7
		case strings.HasPrefix(tok, "W2:"):
			kind, arg = pim.KindGWrite2, tok[3:]
		case strings.HasPrefix(tok, "W4:"):
			kind, arg = pim.KindGWrite4, tok[3:]
		default:
			kind = map[byte]pim.Kind{'W': pim.KindGWrite, 'S': pim.KindGWriteStrided,
				'C': pim.KindComp, 'R': pim.KindReadRes}[tok[0]]
		}
		n := 0
		if arg != "" {
			var err error
			if n, err = strconv.Atoi(arg); err != nil {
				panic(fmt.Sprintf("seed token %q: %v", tok, err))
			}
		}
		bursts, cols := int16(n), int8(0)
		if kind == pim.KindComp {
			bursts, cols = 0, int8(n)
		}
		data = append(data, byte(kind)|flags, byte(bursts), byte(uint16(bursts)>>8), byte(cols))
		flags = 0
	}
	return data
}

// lintBlockSeeds violates each per-command TR-* rule at the first, a
// middle and the last command of a block, breaks two and three rules
// with one command, and draws every channel-level rule.
func lintBlockSeeds() []string {
	const unit = "W8 A C8 C8 R2 R2 |"
	type rule struct {
		cfg         byte
		setup, cmd  string // setup runs in blocks before the violation
		before, end string // what the violation's block holds around it
	}
	var seeds []string
	for _, r := range []rule{
		{0, unit, "K", "W8 A", "C8 R2"},                  // TR-KIND
		{1, unit, "W4:8", "A C8 R2", "A C8 R2"},          // TR-GW-BUFS
		{2, unit, "W4:8", "A C8 R2", "A C8 R2"},          // TR-GW-BUFS
		{0, unit, "W513", "A C8 R2", "A C8 R2"},          // TR-GW-OVERFLOW
		{1, unit, "W129", "A C8 R2", "A C8 R2"},          // TR-GW-OVERFLOW
		{0, unit, "W0", "A C8 R2", "A C8 R2"},            // TR-BURSTS
		{0, unit, "R0", "W8 A C8", "C8 R2"},              // TR-BURSTS
		{0, "A |", "C8", "A A", "W8 C8 R2"},              // TR-COMP-NOBUF
		{0, "W8 |", "C8", "W8 W8", "A C8 R2"},            // TR-COMP-NOACT
		{0, unit, "C33", "W8 A C8", "C8 R2"},             // TR-COMP-COLS
		{0, unit, "C0", "W8 A C8", "C8 R2"},              // TR-COMP-COLS
		{0, unit + " W8 |", "R2", "W8 A", "C8 R2"},       // TR-RR-NOCOMP
		{1, "", "W4:0", "", "A C8 R2"},                   // TR-GW-BUFS and TR-BURSTS
		{0, "", "C0", "", "W8 A C8 R2"},                  // TR-COMP-NOBUF, -NOACT and -COLS
		{0, "W8 A |", "R-1", "", "C8 R2"},                // TR-RR-NOCOMP and TR-BURSTS
		{0, unit + " " + unit, "S-3", unit, "A C8 R2 |"}, // TR-BURSTS on a strided GWRITE
	} {
		seeds = append(seeds,
			fmt.Sprintf("%d|%s %s %s %s", r.cfg, r.setup, r.cmd, r.before, r.end),
			fmt.Sprintf("%d|%s %s %s %s", r.cfg, r.setup, r.before, r.cmd, r.end),
			fmt.Sprintf("%d|%s %s %s | %s", r.cfg, r.setup, r.before, r.cmd, r.end))
	}
	return append(seeds,
		"0|",                           // TR-EMPTY
		"2|#2 "+unit+" #0 "+unit,       // TR-CHANNEL
		"0|#1 "+unit+" #1 "+unit,       // TR-CHANNEL-DUP
		"0|"+unit+" W8 A C8 | C8",      // TR-DRAIN, its COMP in the last block
		"0|"+unit+" W8 A C8 | A | A",   // TR-DRAIN, its COMP blocks earlier
		"1|#0 W8 A C8 #1 W8 A C8 R2 |", // TR-DRAIN as a channel closes
	)
}

// FuzzLintBlocks feeds the linter commands over at most three channels,
// cut into blocks where the input says, and requires the diagnostics of
// the stored-trace reference element for element, with every command
// consumed.
func FuzzLintBlocks(f *testing.F) {
	for _, s := range lintBlockSeeds() {
		cfg, prog, _ := strings.Cut(s, "|")
		f.Add(encodeLintBlocks(cfg[0]-'0', prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, tr, cuts := decodeLintBlocks(data)
		c := channelCounter{linter: newLinter(cfg)}
		for i, ct := range tr.Channels {
			c.BeginChannel(ct.Channel)
			lo := 0
			for _, hi := range append(cuts[i], len(ct.Commands)) {
				c.Emit(ct.Commands[lo:hi])
				lo = hi
			}
		}
		got := c.finish()
		if want := ReferenceTrace(tr, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("blocks %v of trace %+v:\n got %v\nwant %v", cuts, tr, got, want)
		}
		if n := c.n + c.next; n != tr.TotalCommands() {
			t.Fatalf("linter consumed %d of %d commands", n, tr.TotalCommands())
		}
	})
}

// The seed corpus draws every protocol rule; TR-COVER is Workload's.
func TestLintBlockSeedsDrawEveryRule(t *testing.T) {
	drawn := map[string]bool{}
	for _, s := range lintBlockSeeds() {
		cfg, prog, _ := strings.Cut(s, "|")
		c, tr, _ := decodeLintBlocks(encodeLintBlocks(cfg[0]-'0', prog))
		for _, d := range ReferenceTrace(tr, c) {
			drawn[d.Rule] = true
		}
	}
	for _, r := range Rules() {
		if strings.HasPrefix(r.ID, "TR-") && r.ID != RuleTraceCover && !drawn[r.ID] {
			t.Errorf("no seed draws %s", r.ID)
		}
	}
}

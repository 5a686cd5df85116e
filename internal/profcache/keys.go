package profcache

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/pim"
)

// Keys fingerprint the full workload plus every configuration field that
// can change the measured result. Two runs produce the same key only when
// the simulation they would perform is identical, so profiles are shared
// between policies with identical device configs (e.g. Newton++ / MD-DP /
// Pipeline / PIMFlow all use the same PIM feature set) and never leak
// across differing ones.
//
// There are three namespaces:
//   - pim/: one codegen.TimeWorkload simulation (PIMKeys);
//   - gpu/: one gpu.Config.Time roofline evaluation (GPUKeys);
//   - pipe/: one scheduled pipelining candidate (PipeKeys; the search
//     writes the chain description, since only it knows the chain's
//     graph).
//
// In memory a key is a comparable Key value: its namespace, the interned
// device suffix of its configuration, and the workload's fields. Only
// files hold text. A key's text (Key.String) is the workload's fields
// followed by the device suffix, with field names spelled out so a
// persisted file stays debuggable with a text editor. The bytes are
// exactly what the fmt-based builders of earlier versions produced ("%d",
// "%t" and "%g" match strconv's base-10 integers, booleans and shortest
// 'g' floats), so logs saved by them stay valid.
//
// A gpu/ key holds only a kernel's work terms (gpu.Kernel names no
// layer), so identically-shaped layers at different graph positions
// share one entry.

// PipePrefix is the namespace of pipelining-candidate entries. A pipe/
// entry caches the cycles runtime.Execute scheduled for one transformed
// chain, so a change to the runtime's cost model must bump FormatVersion.
const PipePrefix = "pipe/"

const (
	pimPrefix = "pim/"
	gpuPrefix = "gpu/"
	// pipeMark opens every pipe/ device suffix. A chain description may
	// quote any text, but no suffix repeats the mark, so a pipe/ key's
	// suffix starts at the mark's last occurrence.
	pipeMark = "|ibpc="
)

// namespace tells which fields of a Key are set.
type namespace uint8

const (
	// nsText is a key Load could not parse into a namespace: the whole
	// text, kept verbatim so it saves back unchanged.
	nsText namespace = iota
	nsPIM
	nsGPU
	nsPipe
)

// Key identifies one cached measurement. Keys are comparable, and two
// keys are equal exactly when their texts are: the fields map one to one
// onto the text (NaN efficiencies are canonicalized, since every NaN
// prints the same), and each device suffix is interned once per process.
type Key struct {
	ns     namespace
	suffix *string  // interned device suffix; nil for nsText
	w      [5]int64 // pim/: M, K, N, Segments, Groups; gpu/: FLOPs, DRAMBytes, ComputeEff and MemEff bits
	desc   string   // pipe/: the chain description; nsText: the whole text
}

// suffixes interns device suffixes: one string per distinct
// configuration the process has keyed or loaded, so a key carries one
// pointer for hundreds of bytes and equal suffixes are equal pointers.
// Keys built for one store must equal keys built for another, so the
// table is process-wide; it only grows, by one entry per configuration.
var suffixes struct {
	mu sync.Mutex
	m  map[string]*string
}

func intern(b []byte) *string {
	suffixes.mu.Lock()
	defer suffixes.mu.Unlock()
	if p, ok := suffixes.m[string(b)]; ok {
		return p
	}
	if suffixes.m == nil {
		suffixes.m = map[string]*string{}
	}
	p := new(string)
	*p = string(b)
	suffixes.m[*p] = p
	return p
}

// String renders the key's text, the form Save writes.
func (k Key) String() string { return string(k.appendText(nil)) }

func (k Key) appendText(b []byte) []byte {
	switch k.ns {
	case nsPIM:
		b = appendInt64(b, "pim/m=", k.w[0])
		b = appendInt64(b, ",k=", k.w[1])
		b = appendInt64(b, ",n=", k.w[2])
		b = appendInt64(b, ",seg=", k.w[3])
		b = appendInt64(b, ",grp=", k.w[4])
	case nsGPU:
		b = appendInt64(b, "gpu/flops=", k.w[0])
		b = appendInt64(b, ",bytes=", k.w[1])
		b = appendFloat(b, ",ceff=", math.Float64frombits(uint64(k.w[2])))
		b = appendFloat(b, ",meff=", math.Float64frombits(uint64(k.w[3])))
	case nsPipe:
		b = append(append(b, PipePrefix...), k.desc...)
	default:
		return append(b, k.desc...)
	}
	if k.suffix != nil {
		b = append(b, *k.suffix...)
	}
	return b
}

// parseKey reads a key's text back into the Key that renders it. Text no
// namespace parses, or that a parsed key would render differently (a
// leading zero, a longer float), comes back as an nsText key, which no
// builder produces, so it can only miss.
func parseKey(text string) Key {
	k, ok := Key{}, false
	switch {
	case strings.HasPrefix(text, pimPrefix):
		k, ok = parseWorkload(text, nsPIM, "pim/m=", ",k=", ",n=", ",seg=", ",grp=")
	case strings.HasPrefix(text, gpuPrefix):
		k, ok = parseWorkload(text, nsGPU, "gpu/flops=", ",bytes=", ",ceff=", ",meff=")
	case strings.HasPrefix(text, PipePrefix):
		if i := strings.LastIndex(text, pipeMark); i >= len(PipePrefix) {
			k, ok = Key{ns: nsPipe, suffix: intern([]byte(text[i:])), desc: text[len(PipePrefix):i]}, true
		}
	}
	if !ok || k.String() != text {
		return Key{desc: text}
	}
	return k
}

// parseWorkload reads the named fields of a pim/ or gpu/ key in order,
// each value ending at the next field's comma, the last one at the '|'
// that opens the device suffix. gpu/ keys carry two floats after two
// integers.
func parseWorkload(text string, ns namespace, names ...string) (Key, bool) {
	k := Key{ns: ns}
	rest := text
	for i, name := range names {
		if !strings.HasPrefix(rest, name) {
			return k, false
		}
		rest = rest[len(name):]
		stop := byte(',')
		if i == len(names)-1 {
			stop = '|'
		}
		end := strings.IndexByte(rest, stop)
		if end < 0 {
			return k, false
		}
		v := rest[:end]
		rest = rest[end:]
		if ns == nsGPU && i >= 2 {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return k, false
			}
			k.w[i] = floatBits(f)
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return k, false
		}
		k.w[i] = n
	}
	k.suffix = intern([]byte(rest))
	return k, true
}

// floatBits is a float's key field. Every NaN prints as "NaN", so they
// share one bit pattern to keep equal texts equal keys.
func floatBits(f float64) int64 {
	if f != f {
		f = math.NaN()
	}
	return int64(math.Float64bits(f))
}

// PIMKeys builds the pim/ keys of one (PIM config, codegen options) pair.
// The zero value is not usable; see NewPIMKeys.
type PIMKeys struct{ suffix *string }

// NewPIMKeys formats and interns the device part of the pim/ keys. The
// cached cycles are in the PIM clock domain; ClockGHz is still part of
// the key so a config change never aliases (cycle counts happen to be
// clock-invariant today, but the key schema should not encode that).
func NewPIMKeys(cfg pim.Config, opts codegen.Opts) PIMKeys {
	b := appendInt(make([]byte, 0, 256), "|gran=", int(opts.Granularity))
	b = appendBool(b, ",strided=", opts.StridedGWrite)
	b = appendInt(b, "|ch=", cfg.Channels)
	b = appendInt(b, ",banks=", cfg.BanksPerChannel)
	b = appendInt(b, ",colio=", cfg.ColumnIOBytes)
	b = appendInt(b, ",colios=", cfg.ColumnIOsPerRow)
	b = appendInt(b, ",gbuf=", cfg.GlobalBufBytes)
	b = appendInt(b, ",nbuf=", cfg.GlobalBufs)
	b = appendInt(b, ",mults=", cfg.MultsPerBank)
	b = appendInt(b, ",burst=", cfg.BurstBytes)
	b = appendFloat(b, ",clk=", cfg.ClockGHz)
	b = appendBool(b, ",hide=", cfg.GWriteLatencyHiding)
	b = appendBool(b, ",refresh=", cfg.ModelRefresh)
	b = appendBool(b, ",pingpong=", cfg.BankPingPong)
	t := cfg.Timing
	b = appendInt(b, "|tccdl=", t.TCCDL)
	b = appendInt(b, ",trcd=", t.TRCD)
	b = appendInt(b, ",trp=", t.TRP)
	b = appendInt(b, ",tcl=", t.TCL)
	b = appendInt(b, ",tbl=", t.TBL)
	b = appendInt(b, ",tras=", t.TRAS)
	b = appendInt(b, ",trefi=", t.TREFI)
	b = appendInt(b, ",trfc=", t.TRFC)
	return PIMKeys{suffix: intern(b)}
}

// Key identifies one codegen.TimeWorkload simulation of w.
func (k PIMKeys) Key(w codegen.Workload) Key {
	return Key{ns: nsPIM, suffix: k.suffix, w: [5]int64{int64(w.M), int64(w.K), int64(w.N), int64(w.Segments), int64(w.Groups)}}
}

// GPUKeys builds the gpu/ keys of one GPU configuration. The zero value
// is not usable; see NewGPUKeys.
type GPUKeys struct{ suffix *string }

// NewGPUKeys formats and interns the device part of the gpu/ keys.
// WinogradConvs and WriteBack shape the kernel during NodeKernel
// construction, so they are already reflected in the kernel's work
// terms; they are included anyway to keep the fingerprint a plain
// enumeration of the config rather than a claim about the model's
// internals.
func NewGPUKeys(cfg gpu.Config) GPUKeys {
	b := make([]byte, 0, 160)
	b = appendInt(b, "|sms=", cfg.SMs)
	b = appendInt(b, ",fmas=", cfg.FMAsPerSMPerCycle)
	b = appendFloat(b, ",clk=", cfg.ClockGHz)
	b = appendInt(b, ",ch=", cfg.MemChannels)
	b = appendFloat(b, ",bpc=", cfg.BytesPerCyclePerChannel)
	b = appendInt64(b, ",l2=", cfg.L2Bytes)
	b = appendInt64(b, ",launch=", cfg.LaunchOverheadCycles)
	b = appendBool(b, ",winograd=", cfg.WinogradConvs)
	b = appendBool(b, ",wb=", cfg.WriteBack)
	return GPUKeys{suffix: intern(b)}
}

// Key identifies one gpu.Config.Time evaluation of a roofline kernel.
func (k GPUKeys) Key(kern gpu.Kernel) Key {
	return Key{ns: nsGPU, suffix: k.suffix, w: [5]int64{kern.FLOPs, kern.DRAMBytes, floatBits(kern.ComputeEff), floatBits(kern.MemEff)}}
}

// PipeKeys builds the pipe/ keys of one runtime configuration. The zero
// value is not usable; see NewPipeKeys.
type PipeKeys struct{ suffix *string }

// NewPipeKeys formats and interns the device part of the pipe/ keys: the
// runtime's interconnect bandwidth, per-edge synchronization latency and
// trace-verification switch, then the pim/ and gpu/ suffixes of its
// devices. Together they fingerprint every runtime setting a schedule
// depends on.
func NewPipeKeys(bytesPerCycle float64, syncCycles int64, verifyTraces bool, p PIMKeys, g GPUKeys) PipeKeys {
	b := make([]byte, 0, 32+len(*p.suffix)+len(*g.suffix))
	b = appendFloat(b, pipeMark, bytesPerCycle)
	b = appendInt64(b, ",sync=", syncCycles)
	b = appendBool(b, ",verify=", verifyTraces)
	b = append(b, *p.suffix...)
	b = append(b, *g.suffix...)
	return PipeKeys{suffix: intern(b)}
}

// Key identifies one pipelining candidate by its chain description: the
// text after PipePrefix and before the device suffix.
func (k PipeKeys) Key(desc []byte) Key {
	return Key{ns: nsPipe, suffix: k.suffix, desc: string(desc)}
}

func appendInt(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendInt64(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// appendFloat writes v as fmt's %g does: the shortest representation in
// 'g' format.
func appendFloat(b []byte, name string, v float64) []byte {
	return strconv.AppendFloat(append(b, name...), v, 'g', -1, 64)
}

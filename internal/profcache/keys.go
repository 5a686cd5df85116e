package profcache

import (
	"strconv"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/pim"
)

// Keys fingerprint the full workload plus every configuration field that
// can change the measured result. Two runs produce the same key only when
// the simulation they would perform is identical, so profiles are shared
// between policies with identical device configs (e.g. Newton++ / MD-DP /
// Pipeline / PIMFlow all use the same PIM feature set) and never leak
// across differing ones. Field names are spelled out in the key so a
// persisted file stays debuggable with a text editor.
//
// There are three namespaces:
//   - pim/: one codegen.TimeWorkload simulation (PIMKeys);
//   - gpu/: one gpu.Config.Time roofline evaluation (GPUKeys);
//   - pipe/: one scheduled pipelining candidate (PipePrefix; the search
//     builds these keys, since only it knows the chain's graph).
//
// A key is the workload's fields followed by a device suffix. The suffix
// only depends on the configuration, so PIMKeys and GPUKeys format it
// once and append each workload with strconv. The bytes are exactly what
// the fmt-based builders of earlier versions produced ("%d", "%t" and
// "%g" match strconv's base-10 integers, booleans and shortest 'g'
// floats), so logs saved by them stay valid.
//
// Deliberately excluded:
//   - gpu.Kernel.Name: the roofline result depends only on the kernel's
//     work terms, so identically-shaped layers at different graph
//     positions share one entry.

// PipePrefix is the namespace of pipelining-candidate entries. A pipe/
// entry caches the cycles runtime.Execute scheduled for one transformed
// chain, so a change to the runtime's cost model must bump FormatVersion.
const PipePrefix = "pipe/"

// PIMKeys builds the pim/ keys of one (PIM config, codegen options) pair.
// The zero value is not usable; see NewPIMKeys.
type PIMKeys struct{ suffix string }

// NewPIMKeys formats the device part of the pim/ keys. The cached cycles
// are in the PIM clock domain; ClockGHz is still part of the key so a
// config change never aliases (cycle counts happen to be clock-invariant
// today, but the key schema should not encode that).
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
	return PIMKeys{suffix: string(b)}
}

// Key identifies one codegen.TimeWorkload simulation of w.
func (k PIMKeys) Key(w codegen.Workload) string {
	b := make([]byte, 0, 64+len(k.suffix))
	b = appendInt(b, "pim/m=", w.M)
	b = appendInt(b, ",k=", w.K)
	b = appendInt(b, ",n=", w.N)
	b = appendInt(b, ",seg=", w.Segments)
	b = appendInt(b, ",grp=", w.Groups)
	return string(append(b, k.suffix...))
}

// Suffix returns the device part every key of k ends with.
func (k PIMKeys) Suffix() string { return k.suffix }

// GPUKeys builds the gpu/ keys of one GPU configuration. The zero value
// is not usable; see NewGPUKeys.
type GPUKeys struct{ suffix string }

// NewGPUKeys formats the device part of the gpu/ keys. WinogradConvs and
// WriteBack shape the kernel during NodeKernel construction, so they are
// already reflected in the kernel's work terms; they are included anyway
// to keep the fingerprint a plain enumeration of the config rather than a
// claim about the model's internals.
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
	return GPUKeys{suffix: string(b)}
}

// Key identifies one gpu.Config.Time evaluation of a roofline kernel.
func (k GPUKeys) Key(kern gpu.Kernel) string {
	b := make([]byte, 0, 96+len(k.suffix))
	b = appendInt64(b, "gpu/flops=", kern.FLOPs)
	b = appendInt64(b, ",bytes=", kern.DRAMBytes)
	b = appendFloat(b, ",ceff=", kern.ComputeEff)
	b = appendFloat(b, ",meff=", kern.MemEff)
	return string(append(b, k.suffix...))
}

// Suffix returns the device part every key of k ends with.
func (k GPUKeys) Suffix() string { return k.suffix }

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

package profcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pimflow/internal/codegen"
	"pimflow/internal/gpu"
	"pimflow/internal/pim"
)

// refPIMWorkloadKey is the fmt-based pim/ key builder PIMKeys replaced.
// Saved logs hold its strings, so the fast builder must reproduce them
// byte for byte.
func refPIMWorkloadKey(w codegen.Workload, cfg pim.Config, opts codegen.Opts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pim/m=%d,k=%d,n=%d,seg=%d,grp=%d", w.M, w.K, w.N, w.Segments, w.Groups)
	fmt.Fprintf(&b, "|gran=%d,strided=%t", opts.Granularity, opts.StridedGWrite)
	fmt.Fprintf(&b, "|ch=%d,banks=%d,colio=%d,colios=%d,gbuf=%d,nbuf=%d,mults=%d,burst=%d,clk=%g",
		cfg.Channels, cfg.BanksPerChannel, cfg.ColumnIOBytes, cfg.ColumnIOsPerRow,
		cfg.GlobalBufBytes, cfg.GlobalBufs, cfg.MultsPerBank, cfg.BurstBytes, cfg.ClockGHz)
	fmt.Fprintf(&b, ",hide=%t,refresh=%t,pingpong=%t",
		cfg.GWriteLatencyHiding, cfg.ModelRefresh, cfg.BankPingPong)
	t := cfg.Timing
	fmt.Fprintf(&b, "|tccdl=%d,trcd=%d,trp=%d,tcl=%d,tbl=%d,tras=%d,trefi=%d,trfc=%d",
		t.TCCDL, t.TRCD, t.TRP, t.TCL, t.TBL, t.TRAS, t.TREFI, t.TRFC)
	return b.String()
}

// refGPUKernelKey is the fmt-based gpu/ key builder GPUKeys replaced.
func refGPUKernelKey(k gpu.Kernel, cfg gpu.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gpu/flops=%d,bytes=%d,ceff=%g,meff=%g",
		k.FLOPs, k.DRAMBytes, k.ComputeEff, k.MemEff)
	fmt.Fprintf(&b, "|sms=%d,fmas=%d,clk=%g,ch=%d,bpc=%g,l2=%d,launch=%d,winograd=%t,wb=%t",
		cfg.SMs, cfg.FMAsPerSMPerCycle, cfg.ClockGHz, cfg.MemChannels,
		cfg.BytesPerCyclePerChannel, cfg.L2Bytes, cfg.LaunchOverheadCycles,
		cfg.WinogradConvs, cfg.WriteBack)
	return b.String()
}

// edgeFloats are values whose %g rendering switches notation, rounds,
// or is not a number.
var edgeFloats = []float64{
	0, 1, 0.1, 1.0 / 3, 0.75, 1.25, 2.5e-5, 1e-07, 0.0001, 0.00001, 123456, 1e20,
	1e+21, 1e21 + 1e6, 12345678901234567890, math.SmallestNonzeroFloat64,
	math.MaxFloat64, -0.5, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
}

var edgeInts = []int{0, 1, -1, 7, 1 << 20, math.MaxInt32, math.MinInt32}

// TestKeysMatchFmtReference pins the strconv builders to the fmt
// reference over the default configurations, every field varied alone,
// and float and integer edge values.
func TestKeysMatchFmtReference(t *testing.T) {
	workloads := []codegen.Workload{
		{M: 64, K: 256, N: 32, Segments: 3},
		{M: 1, K: 1, N: 1, Segments: 1, Groups: 32},
		{M: -5, K: math.MaxInt32, N: 0, Segments: -1, Groups: -2},
	}
	pims := []pim.Config{pim.DefaultConfig(), pim.NewtonConfig()}
	for _, v := range fieldVariants(t, pim.DefaultConfig(), nil) {
		pims = append(pims, v.(pim.Config))
	}
	for _, f := range edgeFloats {
		c := pim.DefaultConfig()
		c.ClockGHz = f
		pims = append(pims, c)
	}
	for _, n := range edgeInts {
		c := pim.DefaultConfig()
		c.Channels, c.Timing.TRFC = n, n
		pims = append(pims, c)
	}
	optsList := []codegen.Opts{codegen.DefaultOpts(), {}, {Granularity: codegen.Granularity(9), StridedGWrite: true}}
	for _, cfg := range pims {
		for _, opts := range optsList {
			keys := NewPIMKeys(cfg, opts)
			for _, w := range workloads {
				want := refPIMWorkloadKey(w, cfg, opts)
				if got := keys.Key(w).String(); got != want {
					t.Fatalf("pim key\n got %s\nwant %s", got, want)
				}
				if parseKey(want) != keys.Key(w) {
					t.Fatalf("pim key %s does not parse back", want)
				}
			}
		}
	}

	kernels := []gpu.Kernel{
		{FLOPs: 1000, DRAMBytes: 500, ComputeEff: 0.5, MemEff: 0.75},
		{FLOPs: math.MaxInt64, DRAMBytes: math.MinInt64},
	}
	for _, f := range edgeFloats {
		kernels = append(kernels, gpu.Kernel{FLOPs: 3, DRAMBytes: 4, ComputeEff: f, MemEff: -f})
	}
	gpus := []gpu.Config{gpu.DefaultConfig(), gpu.DefaultConfig().WithChannels(16)}
	for _, v := range fieldVariants(t, gpu.DefaultConfig(), nil) {
		gpus = append(gpus, v.(gpu.Config))
	}
	for _, f := range edgeFloats {
		c := gpu.DefaultConfig()
		c.ClockGHz, c.BytesPerCyclePerChannel = f, 1/f
		gpus = append(gpus, c)
	}
	for _, cfg := range gpus {
		keys := NewGPUKeys(cfg)
		for _, k := range kernels {
			want := refGPUKernelKey(k, cfg)
			if got := keys.Key(k).String(); got != want {
				t.Fatalf("gpu key\n got %s\nwant %s", got, want)
			}
			if parseKey(want) != keys.Key(k) {
				t.Fatalf("gpu key %s does not parse back", want)
			}
		}
	}
}

// TestEveryConfigFieldChangesKey varies every field of pim.Config
// (Timing included), codegen.Opts and gpu.Config one at a time: each
// change must give a different key. A field added later fails here until
// the key covers it, so it cannot silently fall outside a precomputed
// device suffix.
func TestEveryConfigFieldChangesKey(t *testing.T) {
	w := codegen.Workload{M: 64, K: 256, N: 32, Segments: 3}
	pcfg, opts := pim.DefaultConfig(), codegen.DefaultOpts()
	base := NewPIMKeys(pcfg, opts).Key(w)
	for path, v := range fieldVariants(t, pcfg, nil) {
		if NewPIMKeys(v.(pim.Config), opts).Key(w) == base {
			t.Errorf("pim.Config.%s does not change the pim/ key", path)
		}
	}
	for path, v := range fieldVariants(t, opts, nil) {
		if NewPIMKeys(pcfg, v.(codegen.Opts)).Key(w) == base {
			t.Errorf("codegen.Opts.%s does not change the pim/ key", path)
		}
	}
	for path, v := range fieldVariants(t, w, nil) {
		if NewPIMKeys(pcfg, opts).Key(v.(codegen.Workload)) == base {
			t.Errorf("codegen.Workload.%s does not change the pim/ key", path)
		}
	}

	k := gpu.Kernel{FLOPs: 1000, DRAMBytes: 500, ComputeEff: 0.5, MemEff: 0.5}
	gcfg := gpu.DefaultConfig()
	gbase := NewGPUKeys(gcfg).Key(k)
	for path, v := range fieldVariants(t, gcfg, nil) {
		if NewGPUKeys(v.(gpu.Config)).Key(k) == gbase {
			t.Errorf("gpu.Config.%s does not change the gpu/ key", path)
		}
	}
	for path, v := range fieldVariants(t, k, nil) {
		if NewGPUKeys(gcfg).Key(v.(gpu.Kernel)) == gbase {
			t.Errorf("gpu.Kernel.%s does not change the gpu/ key", path)
		}
	}
}

// fieldVariants returns, per leaf field path of the struct v (nested
// structs are walked), a copy of v that differs in that field only.
// Fields named in skip are left out. A field of a kind it cannot vary
// fails the test, so no new field is skipped by accident.
func fieldVariants(t *testing.T, v any, skip map[string]bool) map[string]any {
	t.Helper()
	out := map[string]any{}
	root := reflect.ValueOf(v)
	var walk func(prefix string, index []int, typ reflect.Type)
	walk = func(prefix string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			idx := append(append([]int(nil), index...), i)
			if skip[path] {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(path+".", idx, f.Type)
				continue
			}
			c := reflect.New(root.Type()).Elem()
			c.Set(root)
			fv := c.FieldByIndex(idx)
			switch fv.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
			case reflect.Float32, reflect.Float64:
				fv.SetFloat(fv.Float()*1.5 + 0.25)
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
			default:
				t.Fatalf("%s: cannot vary a %s field", path, fv.Kind())
			}
			out[path] = c.Interface()
		}
	}
	walk("", nil, root.Type())
	return out
}

// keyFloats are efficiencies whose texts are easy to confuse: signed
// zeros, subnormals, notation switches, and NaNs with different payloads,
// which print alike.
var keyFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	2.2250738585072009e-308, 1e-07, 1.0000000000000002e-07, 1e+21, 1e21 + 1e6, 0.5,
	math.Nextafter(0.5, 1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000002),
}

// propertyKeys returns keys of every namespace over suffixes that differ
// in one configuration field: pim/ and gpu/ workloads, pipe/ chain
// descriptions differing in one byte, and texts no namespace parses.
func propertyKeys(t *testing.T) []Key {
	pimCfgs := []PIMKeys{NewPIMKeys(pim.DefaultConfig(), codegen.DefaultOpts())}
	for _, v := range fieldVariants(t, pim.DefaultConfig(), nil) {
		pimCfgs = append(pimCfgs, NewPIMKeys(v.(pim.Config), codegen.DefaultOpts()))
	}
	gpuCfgs := []GPUKeys{NewGPUKeys(gpu.DefaultConfig())}
	for _, v := range fieldVariants(t, gpu.DefaultConfig(), nil) {
		gpuCfgs = append(gpuCfgs, NewGPUKeys(v.(gpu.Config)))
	}
	pipeCfgs := []PipeKeys{
		NewPipeKeys(256, 200, false, pimCfgs[0], gpuCfgs[0]),
		NewPipeKeys(256, 201, false, pimCfgs[0], gpuCfgs[0]),
		NewPipeKeys(256, 200, true, pimCfgs[0], gpuCfgs[0]),
		NewPipeKeys(math.Copysign(0, -1), 200, false, pimCfgs[0], gpuCfgs[0]),
		NewPipeKeys(256, 200, false, pimCfgs[1], gpuCfgs[0]),
		NewPipeKeys(256, 200, false, pimCfgs[0], gpuCfgs[1]),
	}
	var keys []Key
	for _, pk := range pimCfgs {
		for _, w := range []codegen.Workload{{M: 1, K: 2, N: 3, Segments: 1}, {M: 1, K: 2, N: 3, Segments: 1, Groups: 1}, {M: 12, K: 3, N: 1, Segments: 1}, {M: -1}} {
			keys = append(keys, pk.Key(w))
		}
	}
	for _, gk := range gpuCfgs {
		for _, f := range keyFloats {
			keys = append(keys, gk.Key(gpu.Kernel{FLOPs: 10, DRAMBytes: 20, ComputeEff: f, MemEff: 0.5}),
				gk.Key(gpu.Kernel{FLOPs: 10, DRAMBytes: 20, ComputeEff: 0.5, MemEff: f}))
		}
		keys = append(keys, gk.Key(gpu.Kernel{FLOPs: 1, DRAMBytes: 2, ComputeEff: 1, MemEff: 1}),
			gk.Key(gpu.Kernel{FLOPs: 12, DRAMBytes: 0, ComputeEff: 1, MemEff: 1}))
	}
	for _, qk := range pipeCfgs {
		for _, desc := range []string{"stages=2|Conv{i}", "stages=3|Conv{i}", "stages=2|Conv{s\"a\"\"|ibpc=1\"}", ""} {
			keys = append(keys, qk.Key([]byte(desc)))
		}
	}
	for _, text := range []string{"", "k", "pim/", "pim/m=01,k=2,n=3,seg=1,grp=0|x", "gpu/flops=1,bytes=2,ceff=0.50,meff=1|x", "pipe/no mark"} {
		keys = append(keys, parseKey(text))
	}
	return keys
}

// TestKeyEqualityMatchesText: two keys are equal exactly when their
// texts are, for every pair of the property keys and for seeded random
// pairs of keys rebuilt from random fields, and every key parses back
// from its text.
func TestKeyEqualityMatchesText(t *testing.T) {
	keys := propertyKeys(t)
	texts := make([]string, len(keys))
	for i, k := range keys {
		texts[i] = k.String()
		if parseKey(texts[i]) != k {
			t.Errorf("%q does not parse back to its key", texts[i])
		}
	}
	for i := range keys {
		for j := range keys {
			if (keys[i] == keys[j]) != (texts[i] == texts[j]) {
				t.Errorf("keys %q and %q: equal %v, texts equal %v", texts[i], texts[j], keys[i] == keys[j], texts[i] == texts[j])
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	gk := NewGPUKeys(gpu.DefaultConfig())
	pk := NewPIMKeys(pim.DefaultConfig(), codegen.DefaultOpts())
	small := func() int { return rng.Intn(3) - 1 }
	for i := 0; i < 20000; i++ {
		var a, b Key
		if rng.Intn(2) == 0 {
			a = pk.Key(codegen.Workload{M: small(), K: small(), N: small(), Segments: small(), Groups: small()})
			b = pk.Key(codegen.Workload{M: small(), K: small(), N: small(), Segments: small(), Groups: small()})
		} else {
			f := func() float64 { return keyFloats[rng.Intn(len(keyFloats))] }
			a = gk.Key(gpu.Kernel{FLOPs: int64(small()), ComputeEff: f(), MemEff: f()})
			b = gk.Key(gpu.Kernel{FLOPs: int64(small()), ComputeEff: f(), MemEff: f()})
		}
		if (a == b) != (a.String() == b.String()) {
			t.Fatalf("keys %q and %q: equal %v", a, b, a == b)
		}
	}
}

// TestLoadKeepsUnparsedTextsVerbatim loads texts that a key would render
// differently (a leading zero, a padded float, a missing suffix) beside
// canonical ones: each stays its own entry, only the canonical ones are
// hit, and the file saves back byte for byte.
func TestLoadKeepsUnparsedTextsVerbatim(t *testing.T) {
	pk := NewPIMKeys(pim.DefaultConfig(), codegen.DefaultOpts())
	gk := NewGPUKeys(gpu.DefaultConfig())
	pimKey := pk.Key(codegen.Workload{M: 1, K: 2, N: 3, Segments: 1})
	gpuKey := gk.Key(gpu.Kernel{FLOPs: 1, DRAMBytes: 2, ComputeEff: 0.5, MemEff: 1})
	pimText, gpuText := pimKey.String(), gpuKey.String()
	entries := map[string]Profile{
		pimText: {Cycles: 1},
		gpuText: {Cycles: 2},
		strings.Replace(pimText, "m=1", "m=01", 1):           {Cycles: 3},
		strings.Replace(gpuText, "ceff=0.5", "ceff=0.50", 1): {Cycles: 4},
		strings.Replace(pimText, "|", "", 1):                 {Cycles: 5},
		"pipe/no mark":                                       {Cycles: 6},
		"legacy":                                             {Cycles: 7},
	}
	data, err := json.MarshalIndent(file{Version: FormatVersion, Entries: entries}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New()
	if n, err := s.Load(in); err != nil || n != len(entries) {
		t.Fatalf("Load = %d, %v; want %d", n, err, len(entries))
	}
	for key, want := range map[Key]int64{pimKey: 1, gpuKey: 2} {
		if p, ok := get(s, key); !ok || p.Cycles != want {
			t.Errorf("%s = %+v, %v; want %d cycles", key, p, ok, want)
		}
	}
	if err := s.Save(out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("saved\n%s\nwant\n%s", got, data)
	}
}

// TestKeysDoNotAllocate: building a pim/ or gpu/ key formats nothing.
func TestKeysDoNotAllocate(t *testing.T) {
	pk := NewPIMKeys(pim.DefaultConfig(), codegen.DefaultOpts())
	gk := NewGPUKeys(gpu.DefaultConfig())
	s := New()
	w := codegen.Workload{M: 64, K: 256, N: 32, Segments: 3}
	k := gpu.Kernel{FLOPs: 1000, DRAMBytes: 500, ComputeEff: 0.5, MemEff: 0.75}
	put(t, s, pk.Key(w), Profile{Cycles: 1})
	put(t, s, gk.Key(k), Profile{Cycles: 2})
	compute := func() (Profile, error) { return Profile{}, errors.New("miss") }
	if a := testing.AllocsPerRun(100, func() {
		s.Do(pk.Key(w), compute)
		s.Do(gk.Key(k), compute)
	}); a != 0 {
		t.Errorf("%v allocations per pair of lookups, want 0", a)
	}
}

package serve

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseLoads(t *testing.T) {
	base := ModelSpec{Policy: "PIMFlow", TotalChannels: 16, PIMChannels: 8, SLO: "silver"}
	with := func(name, model string, f func(*ModelSpec)) ModelSpec {
		s := base
		s.Name, s.Model = name, model
		if f != nil {
			f(&s)
		}
		return s
	}
	specs, err := ParseLoads(" mobilenet-v2 , ,gold=resnet-50;slo=gold;batch=8; window=5ms ", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []ModelSpec{
		with("mobilenet-v2", "mobilenet-v2", nil),
		with("gold", "resnet-50", func(s *ModelSpec) {
			s.SLO, s.MaxBatch, s.BatchWindowMillis = "gold", 8, 5
		}),
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("specs %+v\nwant  %+v", specs, want)
	}
	if specs, err := ParseLoads("", base, nil); err != nil || len(specs) != 0 {
		t.Fatalf("empty list: %v, %v", specs, err)
	}

	for _, tc := range []struct{ list, entry, msg string }{
		{"a=toy,b=toy;batch=x", "b=toy;batch=x", "batch: "},
		{"a=toy;window=5", "a=toy;window=5", "window: "},
		{"a=toy;cycles=200000", "a=toy;cycles=200000", `unknown option "cycles"`},
		{"a=toy;lazy", "a=toy;lazy", `option "lazy" is not key=value`},
		{"a=toy;replicas=2", "a=toy;replicas=2", `unknown option "replicas"`},
		{"a=toy;batch", "a=toy;batch", `option "batch" is not key=value`},
	} {
		_, err := ParseLoads(tc.list, base, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("load entry %q", tc.entry)) ||
			!strings.Contains(err.Error(), tc.msg) {
			t.Errorf("ParseLoads(%q) = %v, want an error naming %q with %q", tc.list, err, tc.entry, tc.msg)
		}
	}
}

// TestParseLoadsRejectsIgnoredValues: an entry the registry would serve
// under an empty name or model, or a batch or window value it would
// ignore and replace by the server default, fails the parse.
func TestParseLoadsRejectsIgnoredValues(t *testing.T) {
	for _, tc := range []struct{ entry, msg string }{
		{"=toy", "empty name or model"},
		{"a=", "empty name or model"},
		{";batch=2", "empty name or model"},
		{"a=toy;batch=0", "batch: 0 is not positive"},
		{"a=toy;batch=-1", "batch: -1 is not positive"},
		{"a=toy;window=500us", "window: 500µs is under 1ms"},
		{"a=toy;window=-5ms", "window: -5ms is under 1ms"},
		{"a=toy;window=0s", "window: 0s is under 1ms"},
	} {
		_, err := ParseLoads("b=toy,"+tc.entry, ModelSpec{}, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("load entry %q: %s", tc.entry, tc.msg)) {
			t.Errorf("ParseLoads(%q) = %v, want an error naming the entry with %q", tc.entry, err, tc.msg)
		}
	}
	specs, err := ParseLoads("a=toy;batch=1;window=1ms", ModelSpec{}, nil)
	if err != nil || specs[0].MaxBatch != 1 || specs[0].BatchWindowMillis != 1 {
		t.Fatalf("smallest accepted values: %+v, %v", specs, err)
	}
}

// fleetOptions is the fleet's extension of the grammar: replicas=N and
// the bare lazy, recorded by entry index.
func fleetOptions(replicas map[int]int, lazy map[int]bool) func(int, string, string, bool) (bool, error) {
	return func(i int, key, val string, hasValue bool) (bool, error) {
		switch {
		case key == "lazy" && !hasValue:
			lazy[i] = true
		case key == "replicas" && hasValue:
			n, err := strconv.Atoi(val)
			replicas[i] = n
			return true, err
		default:
			return false, nil
		}
		return true, nil
	}
}

func TestParseLoadsExtension(t *testing.T) {
	replicas, lazy := map[int]int{}, map[int]bool{}
	specs, err := ParseLoads("front=toy;replicas=2;batch=4,mid=toy,back=toy;lazy;replicas=3", ModelSpec{}, fleetOptions(replicas, lazy))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].MaxBatch != 4 || specs[2].Name != "back" {
		t.Fatalf("specs %+v", specs)
	}
	if !reflect.DeepEqual(replicas, map[int]int{0: 2, 2: 3}) || !reflect.DeepEqual(lazy, map[int]bool{2: true}) {
		t.Fatalf("replicas %v, lazy %v", replicas, lazy)
	}
	_, err = ParseLoads("a=toy;replicas=two", ModelSpec{}, fleetOptions(replicas, lazy))
	if err == nil || !strings.Contains(err.Error(), `load entry "a=toy;replicas=two": replicas: `) {
		t.Fatalf("bad replicas: %v", err)
	}
	_, err = ParseLoads("a=toy;lazy=yes", ModelSpec{}, fleetOptions(replicas, lazy))
	if err == nil || !strings.Contains(err.Error(), `unknown option "lazy"`) {
		t.Fatalf("lazy with a value: %v", err)
	}
}

// FuzzParseLoads holds the -load grammar, with the fleet's extension, to
// two properties: it never panics, and every error names the entry it
// rejects. A parsed list yields one spec per non-empty entry, and the
// extension only ever sees the index of the spec being parsed.
func FuzzParseLoads(f *testing.F) {
	for _, seed := range []string{
		"",
		"mobilenet-v2",
		"gold=mobilenet-v2;slo=gold;batch=8;cycles=200000,bronze=mobilenet-v2;slo=bronze",
		"front=toy;replicas=2,back=toy;lazy",
		"a=toy;window=250ms;batch=-1",
		"a=toy;batch=99999999999999999999",
		"a=toy;window=5",
		"a=toy;lazy=1;replicas",
		",,;;,=;=;==,",
		"a=b=c;slo==;cycles=0x10",
		" x ; batch = 2 ",
		"a=toy;\x00;\xff=\xfe",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, list string) {
		replicas, lazy := map[int]int{}, map[int]bool{}
		extend := fleetOptions(replicas, lazy)
		var entries int
		for _, e := range strings.Split(list, ",") {
			if strings.TrimSpace(e) != "" {
				entries++
			}
		}
		seen := 0
		specs, err := ParseLoads(list, ModelSpec{Policy: "PIMFlow"}, func(i int, key, val string, hasValue bool) (bool, error) {
			if i < seen || i >= entries {
				t.Fatalf("extension called for entry %d of %d after %d specs", i, entries, seen)
			}
			seen = i
			return extend(i, key, val, hasValue)
		})
		if err != nil {
			for _, e := range strings.Split(list, ",") {
				if strings.Contains(err.Error(), fmt.Sprintf("load entry %q", strings.TrimSpace(e))) {
					return
				}
			}
			t.Fatalf("error %q names no entry of %q", err, list)
		}
		if len(specs) != entries {
			t.Fatalf("%d specs from %d entries of %q", len(specs), entries, list)
		}
	})
}

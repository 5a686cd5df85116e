package search

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pimflow/internal/models"
	"pimflow/internal/profcache"
	"pimflow/internal/runtime"
)

// compiledDigests pins every compiled paper CNN: the SHA-256 of its
// WriteJSON bytes followed by one "name exec-hint" line per node (the
// hints are not serialized). A pass that changes a node order, an
// attribute, a shape or an annotation changes a digest.
var compiledDigests = map[string]string{
	"efficientnet-v1-b0/PIMFlow":  "c3bc182258646d6193cf1e626eaf967e4ba1ad35b187d7f973336390dde1ce1e",
	"efficientnet-v1-b0/Baseline": "7aba8682aa9350c3bbbb1b48494b13b8e158f53a7bf48984b62a72e908811448",
	"mnasnet-1.0/PIMFlow":         "25d1fe50a9abc2f2dbda198e6ef7cff036784ff98a3c0a3a82f9d893f2dc22ce",
	"mnasnet-1.0/Baseline":        "1fb0599400d1bc3fb196cdf86bd3732f7571b7f8ec7c9bc48ad822b5686ebde7",
	"mobilenet-v2/PIMFlow":        "7488208f983342d7103ded67c89915f8ae154664e5b901f765f498f5fe0bae0c",
	"mobilenet-v2/Baseline":       "f1e45d363e1ea71eda0e9a827564575d174bced83503dd06728bab5250ef46dc",
	"resnet-50/PIMFlow":           "49e01f3b072a987aba6cefa5fd15e4e11bf741344d4a7d703e1f346ef6eac39f",
	"resnet-50/Baseline":          "875d0bf6755aa03c619b75be0961636f016e1e5fedef5ffae7acbb4e43b376cf",
	"vgg-16/PIMFlow":              "b9e79e6e285503ae6783abc9e35e35ecd29ad2b76b7185335b810e45c9c4e652",
	"vgg-16/Baseline":             "ec0ed1199a5daaa8ad28cc3bc8bb669b420a62bcaf0274e1f012f110e9501d27",
}

func TestCompiledGraphsGolden(t *testing.T) {
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{PolicyPIMFlow, PolicyBaseline} {
			out, _, err := Compile(g, DefaultOptions(pol))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			h := sha256.New()
			if err := out.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			for _, n := range out.Nodes {
				fmt.Fprintf(h, "%s %+v\n", n.Name, n.Exec)
			}
			key := name + "/" + pol.String()
			if got := hex.EncodeToString(h.Sum(nil)); got != compiledDigests[key] {
				t.Errorf("%s: compiled graph digest %s, want %s", key, got, compiledDigests[key])
			}
		}
	}
}

// reportDigests pins runtime.Execute's report (the SHA-256 of its JSON)
// for every compiled paper CNN, computed before the profile store took
// typed keys. The store only memoizes timings, so executing without one,
// over a cold one and over a warm one must all give the pinned report.
var reportDigests = map[string]string{
	"efficientnet-v1-b0/PIMFlow":  "b2a93e0ece2434fc59cc241f4cb9b8078f8f710816ea76da0bbef8531ee9f59c",
	"efficientnet-v1-b0/Baseline": "7d6a12df1c7115fad93c0ff169e1548dff46cd6d8f5ae8437a38263489a68510",
	"mnasnet-1.0/PIMFlow":         "a57fa3253e220bccf6bfd8963adaf86749b9ffccd97c7a31f26ccf3309302356",
	"mnasnet-1.0/Baseline":        "b7c4dd97f9cfeedaf806c3d0e7695a3c6bdb3de9c66c1a8b823aa61f44788fbd",
	"mobilenet-v2/PIMFlow":        "2885cc9a00294ceaf1279e4d0ba0599875f9927cf02dcf872e481f08708e85a5",
	"mobilenet-v2/Baseline":       "1a9c9e06240af36484b5be54df3e175cd48c76567b367391ccf2b8ba5596bf74",
	"resnet-50/PIMFlow":           "9a4d15351e386be3463f9d72bc8c17895176419a98637515d24bb31e25793347",
	"resnet-50/Baseline":          "cbacef47368ba1354462dae02d898572ec581f2505b9e5cb3aad506682cec04d",
	"vgg-16/PIMFlow":              "30abc970fc87c866219db1c30b678320a96cacb9b42407c67f41b7734ffa7dff",
	"vgg-16/Baseline":             "c7c5e2588dec45f813df1a95388804fc151d7faa793fa0a8529ba8c00c2cc98a",
}

func TestRuntimeReportsGolden(t *testing.T) {
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{PolicyPIMFlow, PolicyBaseline} {
			key := name + "/" + pol.String()
			opts := DefaultOptions(pol)
			out, _, err := Compile(g, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			rt := opts.RuntimeConfig()
			store := profcache.New()
			for run, s := range []*profcache.Store{nil, store, store} {
				rt.Profiles = s
				rep, err := runtime.Execute(out, rt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != reportDigests[key] {
					t.Errorf("%s run %d (store %v): report digest %s, want %s", key, run, s != nil, got, reportDigests[key])
				}
			}
		}
	}
}

// plannedExecuted pins each paper CNN's PIMFlow plan objective
// (Plan.TotalProfiled) beside the cycles runtime.Execute gives its
// compiled graph. The gap has both signs: the runtime charges
// synchronization and PIM-to-GPU movement the objective does not price,
// and it overlaps nodes the objective sums, so the objective bounds the
// schedule neither from below nor from above.
var plannedExecuted = map[string][2]int64{
	"efficientnet-v1-b0": {421752, 434417},   // +12 665
	"mnasnet-1.0":        {262267, 262068},   // -199
	"mobilenet-v2":       {268818, 268619},   // -199
	"resnet-50":          {1539311, 1538225}, // -1 086
	"vgg-16":             {2666169, 2666840}, // +671
}

func TestPlannedVsExecutedGolden(t *testing.T) {
	for _, name := range models.EvaluatedCNNs() {
		g, err := models.Build(name, models.Options{Light: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(PolicyPIMFlow)
		out, plan, err := Compile(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := runtime.Execute(out, opts.RuntimeConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := [2]int64{plan.TotalProfiled, rep.TotalCycles}; got != plannedExecuted[name] {
			t.Errorf("%s: (planned, executed) = %v, want %v", name, got, plannedExecuted[name])
		}
	}
}

package search

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pimflow/internal/models"
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

package serve_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"pimflow/internal/load"
	"pimflow/internal/serve"
	"pimflow/internal/verify"
)

// The in-place check of a certified replay's recorder returns what
// verify.Schedule returns on the exported certificate on every builtin
// single-server scenario, clean, and again after each forged row
// appended to the live recorder, with the rule the exported check
// reports.
func TestInPlaceCheckMatchesExport(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal", "bursty"} {
		sc, err := load.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Requests = 2000
		adm, err := serve.ParseAdmissionPolicy(sc.Admission)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{QueueDepth: sc.QueueDepth, Admission: adm, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		if err := load.LoadModels(srv, sc); err != nil {
			t.Fatal(err)
		}
		reqs, err := load.Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := load.Replay(srv, sc, reqs); err != nil {
			t.Fatal(err)
		}
		same := func(what, rule string) {
			t.Helper()
			got, want := srv.CertificateView().Check(), verify.Schedule(srv.Certificate())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: in place %v, exported %v", name, what, got, want)
			}
			if rule == "" && len(got) != 0 || rule != "" && !slices.ContainsFunc(got, func(d verify.Diagnostic) bool { return d.Rule == rule }) {
				t.Fatalf("%s %s: diagnostics %v, want one from %q", name, what, got, rule)
			}
		}
		same("replay", "")
		cert := srv.Certificate()
		if len(cert.Requests) < 2 {
			t.Fatalf("%s replay served %d requests", name, len(cert.Requests))
		}
		last, r := cert.Leases[len(cert.Leases)-1], cert.Requests[len(cert.Requests)-1]
		r.LeaseID = last.ID + 1
		srv.ForgeCertRows(nil, []verify.ScheduleRequest{r}, nil)
		same("request on an unknown lease", verify.RuleSchedLease)
		srv.ForgeCertRows(nil, nil, []verify.ScheduleFrontier{{LeaseID: last.ID, Frontier: last.End - 1}})
		same("frontier before its lease's end", verify.RuleSchedFrontier)
		srv.ForgeCertRows([]verify.ScheduleLease{last}, nil, nil)
		same("duplicate lease", verify.RuleSchedDemand)
	}
}

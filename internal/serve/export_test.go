package serve

import "pimflow/internal/verify"

// Rows copies the recorded rows out of the log as Certificate does.
func (l *CertLog[T]) Rows() []T { return l.View().Copy() }

// ForgeCertRows appends forged rows to the server's live certificate
// recorder, as a faulty scheduler or recorder would record them.
func (s *Server) ForgeCertRows(ls []verify.ScheduleLease, rs []verify.ScheduleRequest, fs []verify.ScheduleFrontier) {
	s.cert.mu.Lock()
	defer s.cert.mu.Unlock()
	for _, l := range ls {
		s.cert.leases.Append(l)
	}
	for _, r := range rs {
		s.cert.requests.Append(r)
	}
	for _, f := range fs {
		s.cert.frontiers.Append(f)
	}
}

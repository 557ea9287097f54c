package serve

import (
	"multidiag/internal/qrec"
)

// ServiceRecord snapshots the server's serving-path behaviour as a qrec
// service record: admission outcomes, coalescing ratio, and latency
// quantiles. mdserve writes one on shutdown (-service-record-out) so
// mdgate serve can gate serving regressions the way mdgate quality
// gates campaign quality.
func (s *Server) ServiceRecord(label string) qrec.ServiceRecord {
	requests := s.reg.Counter("serve.requests").Value()
	shed := s.reg.Counter("serve.shed").Value()
	batches := s.reg.Counter("serve.batches").Value()
	executed := s.reg.Histogram("serve.batch_size").Sum()
	rec := qrec.ServiceRecord{
		Label:     label,
		Workloads: append([]string(nil), s.names...),
		Requests:  requests,
		Shed:      shed,
		Timeouts:  s.reg.Counter("serve.timeouts").Value() + s.reg.Counter("serve.expired").Value(),
		Panics:    s.reg.Counter("serve.panics").Value(),
		Batches:   batches,
	}
	if requests+shed > 0 {
		rec.ShedRate = float64(shed) / float64(requests+shed)
	}
	if batches > 0 {
		rec.MeanBatch = float64(executed) / float64(batches)
	}
	q := s.reg.Histogram("serve.queue_wait_us")
	rec.QueueP95MS = float64(q.Quantile(0.95)) / 1000
	h := s.reg.Histogram("serve.service_us")
	rec.ServiceP50MS = float64(h.Quantile(0.50)) / 1000
	rec.ServiceP95MS = float64(h.Quantile(0.95)) / 1000
	rec.ServiceP99MS = float64(h.Quantile(0.99)) / 1000
	rec.ServiceMaxMS = float64(h.Max()) / 1000
	s.flaggedMu.Lock()
	rec.FlaggedRequests = append([]string(nil), s.flaggedIDs...)
	s.flaggedMu.Unlock()
	return rec
}

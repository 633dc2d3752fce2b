package platform

import "hyscale/internal/workload"

// requestLedger returns how many requests w has carved, the requests in
// flight in its containers, and the released requests awaiting reuse.
func (w *World) requestLedger() (carved int, inflight, free []*workload.Request) {
	carved, free = w.ids.Ledger()
	for _, n := range w.cluster.Nodes() {
		for _, c := range n.Containers() {
			inflight = append(inflight, c.InflightRequests()...)
		}
	}
	return carved, inflight, free
}

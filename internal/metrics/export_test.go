package metrics

// latencyEntries reports how many latency entries the recorder retains
// across its services: distinct values in the count maps, and entries in
// the sorted runs rebuilt on read.
func (r *Recorder) latencyEntries() (counted, runs int) {
	for _, s := range r.order {
		counted += len(s.counts)
		runs += len(s.runs)
	}
	return counted, runs
}

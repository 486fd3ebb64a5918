package obs

// QualitySample is one point of the live partition-quality time series: the
// running replication factor, edge balance and load spread at a batch /
// region boundary. Samples are pushed by the runners that own live quality
// state (internal/stream's deliver closures, internal/ooc's batch loop,
// internal/restream's pass boundaries) — never from the per-edge path.
type QualitySample struct {
	// TimeNs is nanoseconds since the trace epoch.
	TimeNs int64 `json:"t_ns"`
	// Edges is the number of edges placed when the sample was taken.
	Edges int64 `json:"edges"`
	// Replicas is the running replica total Σ_v |mask(v)|.
	Replicas int64 `json:"replicas"`
	// Covered is the running number of vertices with ≥ 1 replica.
	Covered int64 `json:"covered"`
	// RF is Replicas/Covered — the running replication factor.
	RF float64 `json:"rf"`
	// Balance is maxLoad·k/Edges — the running edge balance α.
	Balance float64 `json:"balance"`
	// Spread is (maxLoad−minLoad)·k/Edges — the load spread between the
	// heaviest and lightest partitions, normalized like Balance.
	Spread float64 `json:"spread"`
}

// SampleTick reports whether the caller should take a quality sample at this
// boundary, advancing the SampleEvery thinning sequence. Nil-safe (returns
// false), so the gather work — O(k) sums over loads and vertex counts — is
// skipped entirely when observability is off or sampling is disabled.
func (o *Obs) SampleTick() bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sampleEvery <= 0 || o.samplesCap <= 0 {
		return false
	}
	o.sampleSeq++
	return o.sampleSeq%int64(o.sampleEvery) == 0
}

// RecordSample derives a QualitySample from running totals and pushes it
// into the bounded series ring (oldest samples evicted FIFO past the cap).
// Nil-safe. Callers gate the gather behind SampleTick.
func (o *Obs) RecordSample(edges, replicas, covered, maxLoad, minLoad int64, k int) {
	if o == nil {
		return
	}
	s := QualitySample{Edges: edges, Replicas: replicas, Covered: covered}
	if covered > 0 {
		s.RF = float64(replicas) / float64(covered)
	}
	if edges > 0 && k > 0 {
		s.Balance = float64(maxLoad) * float64(k) / float64(edges)
		spread := maxLoad - minLoad
		if spread < 0 {
			spread = 0
		}
		s.Spread = float64(spread) * float64(k) / float64(edges)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.samplesCap <= 0 {
		return
	}
	s.TimeNs = o.now().Sub(o.t0).Nanoseconds()
	if len(o.samples) < o.samplesCap {
		o.samples = append(o.samples, s)
		return
	}
	o.samples[o.samplesHead] = s
	o.samplesHead = (o.samplesHead + 1) % o.samplesCap
	o.seriesEvicted++
}

// Series returns the recorded quality samples in chronological order (a
// copy). Nil-safe (returns nil).
func (o *Obs) Series() []QualitySample {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.samples) == 0 {
		return nil
	}
	out := make([]QualitySample, 0, len(o.samples))
	out = append(out, o.samples[o.samplesHead:]...)
	out = append(out, o.samples[:o.samplesHead]...)
	return out
}

// SeriesEvicted returns how many samples the ring cap has discarded.
// Nil-safe (returns 0).
func (o *Obs) SeriesEvicted() int64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seriesEvicted
}

// LatestSample returns the most recent quality sample and whether one
// exists. Nil-safe. The /metrics exposition exports it as gauges.
func (o *Obs) LatestSample() (QualitySample, bool) {
	if o == nil {
		return QualitySample{}, false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.samples) == 0 {
		return QualitySample{}, false
	}
	i := o.samplesHead - 1
	if i < 0 {
		i = len(o.samples) - 1
	}
	return o.samples[i], true
}

// Sampled profiling (Config.SamplePeriod): the deterministic stride
// that decides which block events update profiling counters, and the
// unit conversions between sampled and full counts.
//
// The stride is a countdown over the engine's own dynamic block-event
// sequence: event k (1-indexed) is sampled iff k ≡ phase+1 (mod P),
// where P is the period and phase is derived from SampleSeed. Nothing
// else feeds it — not wall clock, not scheduling, not which blocks are
// frozen — so the set of sampled events is a pure function of (image,
// tape, Config). That is the determinism argument: a follower replaying
// the shared trace sees the identical event sequence a serial run
// would, so its sampled counters, registration timing, optimization
// waves, and snapshot are bit-for-bit reproducible across repeat runs,
// worker counts and follower counts.
//
// Counters stay in sampled units inside the engine (a sampled block
// event increments use by one); they are scaled by the period at the
// two consumption boundaries — region formation (Engine.Info) and the
// profile snapshot — so downstream consumers see unbiased estimates of
// the full counts and the region former's MinUse gate behaves as under
// full instrumentation. Thresholds move the other way: registration
// triggers at ceil(Threshold/P) sampled hits, approximating the
// paper's "register at T uses" with the information sampling retains.
package dbt

// samplePhase derives the stride phase in [0, SamplePeriod) from the
// seed. A seeded hash (splitmix64's finalizer) rather than the raw seed
// keeps nearby seeds from yielding nearby phases.
func samplePhase(cfg Config) uint64 {
	if cfg.SamplePeriod <= 1 {
		return 0
	}
	return splitmix64(cfg.SampleSeed) % cfg.SamplePeriod
}

// sampleRegThreshold converts the registration threshold into sampled
// units: ceil(Threshold/SamplePeriod), floored at one sampled hit so
// huge periods still let hot blocks register. Full instrumentation
// (period 0 or 1) keeps the threshold verbatim.
func sampleRegThreshold(cfg Config) uint64 {
	if cfg.SamplePeriod <= 1 {
		return cfg.Threshold
	}
	rt := (cfg.Threshold + cfg.SamplePeriod - 1) / cfg.SamplePeriod
	if rt == 0 {
		rt = 1
	}
	return rt
}

// sampleScale is the factor sampled counters are multiplied by at the
// consumption boundaries: the period when sampling, 1 otherwise.
func (e *Engine) sampleScale() uint64 {
	if e.samplePeriod <= 1 {
		return 1
	}
	return e.samplePeriod
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// hash with no state beyond its input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

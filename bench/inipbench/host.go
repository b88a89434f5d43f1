package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark was defined on, two vCPUs of a shared
// machine, changes speed by up to 1.6x within tens of milliseconds and
// for seconds to minutes at a time, and the guest sees no steal time
// for it. Raw times therefore describe the host as much as the code:
// back-to-back suite ops cut into 10-second windows gave window medians
// that spread by 9-37% (interquartile distance over median), depending
// on the workload and the hour.
//
// So every run measures the host's speed alongside the workload: a
// goroutine of its own reads the host probe every hostSampleEvery, on
// the one processor the workload runs on, and each timed step is
// normalized by the mean of the readings taken while it ran. Over the
// same windows, the medians of normalized op times spread by 1.5-2.5%.
// The probe costs about 3% of the processor, as much on every commit.
//
// Op times do not grow in proportion to the probe reading but faster:
// fitted over ten runs of each workload, as the reading to a power of
// 1.2-1.45. The probe keeps the fastest of its timings, which a slow
// phase stretches less than it stretches a long step that the host also
// interrupts. Normalizing by the reading to the power hostExponent, the
// middle of that range, cut the run-to-run spread of every workload's
// op times in those runs: from 0.036-0.080 at a power of 1 to
// 0.012-0.046.
const hostExponent = 1.25

// probeCode is the host probe's program: opcodes of a five-instruction
// accumulator machine, cycled.
var probeCode = [...]uint8{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 2, 4}

// probeSteps sizes one timing of the probe kernel to about 0.4 ms on
// the host the benchmark was defined on.
const probeSteps = 150_000

// refProbeMS is the reading normalized times are scaled to: the probe's
// usual reading on that host in a fast moment.
const refProbeMS = 0.4

// hostSampleEvery is how often the sampler reads the probe.
const hostSampleEvery = 40 * time.Millisecond

// normalize scales a time measured while the host probe read host (ms)
// to what it would be on a host where the probe reads refProbeMS.
func normalize(v, host float64) float64 { return v * math.Pow(refProbeMS/host, hostExponent) }

// probeHost is one host probe reading, ms: the fastest of three timings
// of a fixed pure-Go kernel that shares no code with the repository, a
// switch-dispatched bytecode loop with data-dependent branches, the
// shape of the translator's hot loop. The fastest of three drops a
// timing that a garbage collection or a wake-up cut into; the host's
// slow phases outlast all three.
func probeHost() float64 {
	best := 0.0
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		var a, b uint64 = 1, 2
		pc := 0
		for i := 0; i < probeSteps; i++ {
			op := probeCode[pc]
			if pc++; pc == len(probeCode) {
				pc = 0
			}
			switch op {
			case 0:
				a += b
			case 1:
				b ^= a << 1
			case 2:
				if a&1 == 0 {
					a >>= 1
				} else {
					a = 3*a + 1
				}
			case 3:
				b += 7
			case 4:
				a ^= b
			}
		}
		d := ms(time.Since(t0))
		probeSink.Store(a ^ b)
		if k == 0 || d < best {
			best = d
		}
	}
	return best
}

// probeSink keeps the probe's result live, so the loop is not optimized
// away. Several samplers, and a step's reading taken beside its run's
// sampler, may store into it at once.
var probeSink atomic.Uint64

// hostSampler reads the host probe on a goroutine of its own until
// stopped.
type hostSampler struct {
	mu       sync.Mutex
	at       []time.Time
	readings []float64 // ms

	stopOnce sync.Once
	stopped  chan struct{}
	done     chan struct{}
}

func startHostSampler() *hostSampler {
	s := &hostSampler{stopped: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(hostSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopped:
				return
			case <-tick.C:
				s.read()
			}
		}
	}()
	return s
}

// read takes one reading and records it.
func (s *hostSampler) read() float64 {
	v := probeHost()
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.readings = append(s.readings, v)
	s.mu.Unlock()
	return v
}

// stop ends the sampling and waits for the goroutine to exit; later
// calls do nothing.
func (s *hostSampler) stop() {
	s.stopOnce.Do(func() { close(s.stopped) })
	<-s.done
}

// all returns every reading so far.
func (s *hostSampler) all() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.readings...)
}

// over is the mean of the readings taken between t0 and t1. A step too
// short to hold a reading takes one right after it.
func (s *hostSampler) over(t0, t1 time.Time) float64 {
	s.mu.Lock()
	sum, n := 0.0, 0
	for i, at := range s.at {
		if !at.Before(t0) && !at.After(t1) {
			sum += s.readings[i]
			n++
		}
	}
	s.mu.Unlock()
	if n == 0 {
		return s.read()
	}
	return sum / float64(n)
}

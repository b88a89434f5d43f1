package predict_test

import (
	"testing"

	"repro/internal/dbt"
	"repro/internal/predict"
	"repro/internal/spec"
)

// recorder keeps a copy of every branch batch the trace hands it.
type recorder struct{ evs []dbt.BranchEvent }

func (r *recorder) ObserveBranches(evs []dbt.BranchEvent) { r.evs = append(r.evs, evs...) }

// specStream records the reference branch streams of a few spec
// benchmarks at the benchmark suite's scale, back to back.
func specStream(b *testing.B) []dbt.BranchEvent {
	b.Helper()
	rec := &recorder{}
	for _, name := range []string{"mcf", "gzip", "perlbmk", "vpr"} {
		img, tape, err := spec.ByName(name).Target(0.005).Build("ref")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := dbt.RunMultiObserved(img, tape, []dbt.Config{{Input: "ref"}}, []dbt.TraceObserver{rec}); err != nil {
			b.Fatal(err)
		}
	}
	return rec.evs
}

// BenchmarkObserve folds a recorded spec branch stream (mcf, gzip,
// perlbmk and vpr at scale 0.005) through each predictor in batches of
// 4096, the driver's batch size, and through the whole suite, and
// reports ns/branch:
//
//	go test ./internal/predict -run '^$' -bench Observe -benchtime 2s
func BenchmarkObserve(b *testing.B) {
	evs := specStream(b)
	const batch = 4096
	fold := func(observe func([]dbt.BranchEvent)) {
		for rest := evs; len(rest) > 0; rest = rest[min(batch, len(rest)):] {
			observe(rest[:min(batch, len(rest))])
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(evs))), "ns/branch")
	}
	for _, name := range predict.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := predict.New(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				fold(func(evs []dbt.BranchEvent) { p.Observe(evs) })
			}
			report(b)
		})
	}
	b.Run("suite", func(b *testing.B) {
		s, err := predict.NewSuite(predict.Names())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			fold(s.ObserveBranches)
		}
		report(b)
	})
}

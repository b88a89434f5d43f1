package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/profile"
	"repro/internal/spec"
)

// scaleCounts returns a copy of snap with every use and taken counter,
// of blocks and of region blocks, multiplied by k.
func scaleCounts(t *testing.T, snap *profile.Snapshot, k uint64) *profile.Snapshot {
	t.Helper()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := new(profile.Snapshot)
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, b := range out.Blocks {
		b.Use *= k
		b.Taken *= k
	}
	for _, r := range out.Regions {
		for i := range r.Blocks {
			r.Blocks[i].Use *= k
			r.Blocks[i].Taken *= k
		}
	}
	return out
}

// TestCountScalingLeavesSummaryUnchanged is a metamorphic test of the
// metric pipeline on spec guests: every probability, weight share and
// normalized frequency is a ratio of counts, so multiplying every
// use/taken count of both the INIP(T) and the AVEP snapshot by k must
// leave Compare's summary unchanged. With k a power of two every scaled
// product and sum is exact, so the summary must be bit-identical.
func TestCountScalingLeavesSummaryUnchanged(t *testing.T) {
	const (
		scale = 0.005
		k     = 4
	)
	for _, name := range []string{"gzip", "mcf", "swim", "vortex", "gcc"} {
		target := spec.ByName(name).Target(scale)
		run := func(cfg dbt.Config) *profile.Snapshot {
			img, tape, err := target.Build("ref")
			if err != nil {
				t.Fatal(err)
			}
			snap, _, err := dbt.Run(img, tape, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return snap
		}
		avep := run(dbt.Config{Input: "ref"})
		inip := run(dbt.Config{Input: "ref", Threshold: 50, Optimize: true, RegisterTwice: true})
		want, _, err := core.Compare(inip, avep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !want.HasRegions || want.Traces == 0 || want.Loops == 0 {
			t.Fatalf("%s: summary %+v lacks traces or loops; the case does not cover Sd.CP and Sd.LP", name, want)
		}
		got, _, err := core.Compare(scaleCounts(t, inip, k), scaleCounts(t, avep, k))
		if err != nil {
			t.Fatalf("%s (counts ×%d): %v", name, k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counts ×%d moved the summary\n got: %+v\nwant: %+v", name, k, got, want)
		}
	}
}

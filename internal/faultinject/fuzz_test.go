package faultinject

import "testing"

// FuzzFaultSpec checks the fault-plan grammar over arbitrary strings:
// Parse never panics, and every spec it accepts renders to a canonical
// String that re-parses to the same plan (String is a fixed point of
// Parse∘String, so plans survive being logged and re-fed).
func FuzzFaultSpec(f *testing.F) {
	f.Add("")
	f.Add("build:gzip/ref")
	f.Add("trap:swim/ref/run@200")
	f.Add("trap:mcf@auto,seed:7")
	f.Add("slow:gzip/train/train:150ms*2")
	f.Add("panic:applu/ref/compare@100*1")
	f.Add("seed:41,trap:*@auto*3")
	f.Add("slow:a:1h2m3s")
	f.Add("build:x*00")
	f.Add("build:*/train*1")
	f.Add("slow:*/compare@50:2ms")
	f.Add("trap:gzip/train@auto,seed:9")
	f.Add("panic:*/*@3*4")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if p == nil {
			return // empty spec: no plan
		}
		s1 := p.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", s1, spec, err)
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("String not a fixed point: %q -> %q -> %q", spec, s1, s2)
		}
	})
}

package loadgen

import (
	"errors"
	"testing"
	"time"
)

// FuzzParseRamp drives the ramp parser: no panic, rejections wrap
// ErrBadSpec, an accepted ramp validates, and Generate on an accepted
// single phase of at most 1 s terminates with every arrival inside the
// phase. Generation is skipped above 10⁵ expected arrivals only to keep
// each fuzz input cheap; Validate already bounds the count.
func FuzzParseRamp(f *testing.F) {
	for _, s := range []string{"50x2s,200x2s,50x1s", "12.5x500ms", "1e-300x1s", "1e300x1ns", "2e9x1s", "1e-9x1s", "NaNx1s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ramp string) {
		phases, err := ParseRamp(ramp)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseRamp(%q): error %v does not wrap ErrBadSpec", ramp, err)
			}
			return
		}
		s := Spec{Seed: 1, Phases: phases, Mix: []Share{{Model: "m", Weight: 1}}}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseRamp(%q) accepted a ramp that fails Validate: %v", ramp, err)
		}
		p := phases[0]
		if len(phases) != 1 || p.Duration > time.Second || p.QPS*p.Duration.Seconds() > 1e5 {
			return
		}
		arr, err := s.Generate()
		if err != nil {
			t.Fatalf("Generate(%q): %v", ramp, err)
		}
		for _, a := range arr {
			if a.At < 0 || a.At >= p.Duration {
				t.Fatalf("Generate(%q): arrival at %v, outside the %v phase", ramp, a.At, p.Duration)
			}
		}
	})
}

// FuzzParseMix drives the mix parser: no panic, rejections wrap
// ErrBadSpec, and an accepted mix validates and generates.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"MobileNet 1.0 v1=2:interactive,Deeplab-v3 MobileNet-v2:best-effort", "m", "m=0", "a=9223372036854775807,b=1", "m:vip"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, mix string) {
		shares, err := ParseMix(mix)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseMix(%q): error %v does not wrap ErrBadSpec", mix, err)
			}
			return
		}
		s := Spec{Seed: 1, Phases: []Phase{{QPS: 100, Duration: 100 * time.Millisecond}}, Mix: shares}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseMix(%q) accepted a mix that fails Validate: %v", mix, err)
		}
		if _, err := s.Generate(); err != nil {
			t.Fatalf("Generate(ParseMix(%q)): %v", mix, err)
		}
	})
}

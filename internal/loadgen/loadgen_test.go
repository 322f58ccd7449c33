package loadgen

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func spec() Spec {
	return Spec{
		Seed: 42,
		Phases: []Phase{
			{QPS: 100, Duration: time.Second},
			{QPS: 400, Duration: 500 * time.Millisecond},
		},
		Mix: []Share{
			{Model: "MobileNet 1.0 v1", Weight: 2},
			{Model: "Deeplab-v3 MobileNet-v2", Weight: 1},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
}

func TestGenerateOrderedAndBounded(t *testing.T) {
	s := spec()
	arrivals, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	last := time.Duration(-1)
	for i, a := range arrivals {
		if a.ID != i {
			t.Fatalf("arrival %d has ID %d", i, a.ID)
		}
		if a.At <= last {
			t.Fatalf("arrival %d at %v not after previous %v", i, a.At, last)
		}
		last = a.At
		if a.At >= s.Duration() {
			t.Fatalf("arrival %d at %v beyond ramp end %v", i, a.At, s.Duration())
		}
		if a.Model != "MobileNet 1.0 v1" && a.Model != "Deeplab-v3 MobileNet-v2" {
			t.Fatalf("arrival %d has model %q outside the mix", i, a.Model)
		}
	}
}

func TestGenerateRateRoughlyHonoured(t *testing.T) {
	// 100 QPS for 1s + 400 QPS for 0.5s offers 300 expected arrivals;
	// a Poisson count should land well within ±40%.
	arrivals, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(arrivals); n < 180 || n > 420 {
		t.Fatalf("got %d arrivals, want roughly 300", n)
	}
	// The 400-QPS phase should hold more than a third of the traffic
	// despite being half as long as the 100-QPS phase.
	second := 0
	for _, a := range arrivals {
		if a.At >= time.Second {
			second++
		}
	}
	if second <= len(arrivals)/3 {
		t.Fatalf("high-QPS phase got %d of %d arrivals", second, len(arrivals))
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := spec().Generate()
	s2 := spec()
	s2.Seed = 43
	b, _ := s2.Generate()
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestParseRamp(t *testing.T) {
	phases, err := ParseRamp("50x2s, 12.5x500ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{{QPS: 50, Duration: 2 * time.Second}, {QPS: 12.5, Duration: 500 * time.Millisecond}}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("got %+v, want %+v", phases, want)
	}
	for _, bad := range []string{"", "50", "x2s", "50x", "fastx2s", "50xlong"} {
		if _, err := ParseRamp(bad); err == nil {
			t.Errorf("ParseRamp(%q) succeeded, want error", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("MobileNet 1.0 v1=2, Deeplab-v3 MobileNet-v2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Share{{Model: "MobileNet 1.0 v1", Weight: 2}, {Model: "Deeplab-v3 MobileNet-v2", Weight: 1}}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	for _, bad := range []string{"", "m=x", "m=", ","} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	good := spec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Phases[0].QPS = 0 },
		func(s *Spec) { s.Phases[0].Duration = 0 },
		func(s *Spec) { s.Mix = nil },
		func(s *Spec) { s.Mix[0].Weight = 0 },
		func(s *Spec) { s.Mix[0].Model = "" },
	}
	for i, mutate := range cases {
		s := spec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate succeeded, want error", i)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
	}
}

func TestValidateRejectsNaNAndInf(t *testing.T) {
	// NaN compares false against "<= 0", so an untyped range check
	// would silently accept it and generate a degenerate schedule.
	cases := []func(*Spec){
		func(s *Spec) { s.Phases[0].QPS = math.NaN() },
		func(s *Spec) { s.Phases[0].QPS = math.Inf(1) },
		func(s *Spec) { s.Phases[0].QPS = -5 },
		func(s *Spec) { s.Mix[0].Class = "vip" },
	}
	for i, mutate := range cases {
		s := spec()
		mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: Validate succeeded, want error", i)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
		if _, err := s.Generate(); err == nil {
			t.Errorf("case %d: Generate succeeded on an invalid spec", i)
		}
	}
}

func TestParseMixClasses(t *testing.T) {
	mix, err := ParseMix("MobileNet 1.0 v1=3:interactive, SqueezeNet:be, Deeplab-v3 MobileNet-v2=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Share{
		{Model: "MobileNet 1.0 v1", Weight: 3, Class: "interactive"},
		{Model: "SqueezeNet", Weight: 1, Class: "best-effort"},
		{Model: "Deeplab-v3 MobileNet-v2", Weight: 1, Class: ""},
	}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	for _, bad := range []string{"m=1:vip", "m:platinum", ":interactive", "m=0:be", "m=-2"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseMix(%q): error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}

func TestGeneratePropagatesClass(t *testing.T) {
	s := spec()
	s.Mix[0].Class = "interactive"
	s.Mix[1].Class = "best-effort"
	arrivals, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		want := "interactive"
		if a.Model == "Deeplab-v3 MobileNet-v2" {
			want = "best-effort"
		}
		if a.Class != want {
			t.Fatalf("arrival %d (%s) has class %q, want %q", a.ID, a.Model, a.Class, want)
		}
	}
}

func TestParseRampRejectsNonPositive(t *testing.T) {
	for _, bad := range []string{"NaN x1s", "NaNx1s", "0x1s", "-5x1s", "+Infx1s", "5x0s", "5x-1s"} {
		if _, err := ParseRamp(bad); err == nil {
			t.Errorf("ParseRamp(%q) succeeded, want error", bad)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseRamp(%q): error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}

// TestDegenerateRatesRejected covers rates whose mean gap is not a
// time.Duration of at least 1 ns, and ramps too large to materialize.
// Generate on any of them used to loop with negative or non-advancing
// arrival times until memory ran out.
func TestDegenerateRatesRejected(t *testing.T) {
	for _, tc := range []struct {
		ramp   string
		phases []Phase
	}{
		{"1e-300x1s", []Phase{{1e-300, time.Second}}},
		{"1e300x1ns", []Phase{{1e300, time.Nanosecond}}},
		{"2e9x1s", []Phase{{2e9, time.Second}}},
		{"1e8x2s", []Phase{{1e8, 2 * time.Second}}},
		{"5x1s,1e-300x1s", []Phase{{5, time.Second}, {1e-300, time.Second}}},
	} {
		if _, err := ParseRamp(tc.ramp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseRamp(%q) = %v, want ErrBadSpec", tc.ramp, err)
		}
		s := spec()
		s.Phases = tc.phases
		if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Validate(%q) = %v, want ErrBadSpec", tc.ramp, err)
			continue
		}
		if _, err := s.Generate(); err == nil {
			t.Errorf("Generate(%q) succeeded on an invalid spec", tc.ramp)
		}
	}
	for _, ramp := range []string{"1e9x100ms", "1e-9x1s"} {
		if _, err := ParseRamp(ramp); err != nil {
			t.Errorf("ParseRamp(%q): %v, want it accepted", ramp, err)
		}
	}
	s := spec()
	s.Mix = []Share{{Model: "a", Weight: math.MaxInt}, {Model: "b", Weight: 1}}
	if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Validate with overflowing weights = %v, want ErrBadSpec", err)
	}
}

// TestTinyRateStaysInPhase: at 2e-10 QPS the mean gap is 5e18 ns, so
// most draws exceed the largest time.Duration. Arrivals must still land
// inside the phase, never at a wrapped-around negative time.
func TestTinyRateStaysInPhase(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := Spec{Seed: seed, Phases: []Phase{{QPS: 2e-10, Duration: time.Second}}, Mix: []Share{{Model: "m", Weight: 1}}}
		arr, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arr {
			if a.At < 0 || a.At >= time.Second {
				t.Fatalf("seed %d: arrival at %v, outside the 1s phase", seed, a.At)
			}
		}
	}
}

package faults

import (
	"fmt"
	"strconv"
	"testing"
)

// specOf renders p in the -faults syntax, one key per field, so an
// accepted plan can be re-parsed: Duration.String and shortest-form
// floats both parse back to the identical value.
func specOf(p Plan) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("rpc=%s,timeout=%s,deadline=%s,session=%s,init=%s,stall=%s,stalldur=%s,trip=%s,seed=%d,attempts=%d,backoff=%s,factor=%s",
		f(p.RPCErrorRate), f(p.RPCTimeoutRate), p.Deadline, f(p.SessionFailRate),
		f(p.DelegateInitFailRate), f(p.StallRate), p.StallDuration, p.ThermalTripAt,
		p.Seed, p.MaxAttempts, p.Backoff, f(p.BackoffFactor))
}

// FuzzParsePlan drives the -faults parser with arbitrary specs. No input
// may panic; an accepted plan must pass Validate, build an injector
// whose every retry wait is non-negative, and re-parse from its
// rendered spec to the same plan.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"", "rpc=0.2,timeout=0.1,deadline=40ms", "timeout=1,deadline=20ms,attempts=2",
		"stall=0.5,stalldur=1s,trip=2s,seed=7", "rpc=NaN", "factor=+Inf,rpc=1",
		"rpc=1,attempts=100", "backoff=3ms,factor=1.5,attempts=5", "rpc", "init=1,,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted a plan that fails Validate: %v", spec, err)
		}
		inj, err := New(p.Resolved(1))
		if err != nil {
			t.Fatalf("New(ParsePlan(%q)): %v", spec, err)
		}
		for a := 1; a < inj.MaxAttempts() && a <= 64; a++ {
			if d := inj.BackoffFor(a); d < 0 {
				t.Fatalf("ParsePlan(%q): retry %d waits %v", spec, a, d)
			}
		}
		again, err := ParsePlan(specOf(p))
		if err != nil || again != p {
			t.Fatalf("ParsePlan(%q) = %+v; its spec %q re-parses to %+v, %v", spec, p, specOf(p), again, err)
		}
	})
}

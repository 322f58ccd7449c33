package obs

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// specOf renders objectives in the -slo syntax: "all" for the aggregate,
// Duration.String for the latency and the shortest float for the
// percentage, each of which parses back to the identical value.
func specOf(objs []Objective) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		model := o.Model
		if model == "" {
			model = "all"
		}
		parts[i] = model + "=" + o.Latency.String() + "@" + strconv.FormatFloat(o.Target*100, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// FuzzParseObjectives drives the -slo parser with arbitrary specs. No
// input may panic; every error wraps ErrBadObjective; an accepted spec
// yields objectives with a positive latency and a target strictly
// inside (0, 1), and re-parses from its rendered spec to the same
// objectives.
func FuzzParseObjectives(f *testing.F) {
	for _, s := range []string{
		"MobileNet 1.0 v1=250ms@99, all=1s@99.9", "all=4ms@95,*=6ms@90", "m=1s@NaN",
		"m=1s@99.99999999999999", "m=1s@1e-11", "a@b=1ms@50", "=1s@50", ",,", "m=1h2m3.5s@12.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			if !errors.Is(err, ErrBadObjective) {
				t.Fatalf("ParseObjectives(%q): error %v does not wrap ErrBadObjective", spec, err)
			}
			return
		}
		for _, o := range objs {
			if o.Latency <= 0 || !(o.Target > 0 && o.Target < 1) {
				t.Fatalf("ParseObjectives(%q) accepted a degenerate objective %+v", spec, o)
			}
		}
		again, err := ParseObjectives(specOf(objs))
		if err != nil || !reflect.DeepEqual(again, objs) {
			t.Fatalf("ParseObjectives(%q) = %+v; its spec %q re-parses to %+v, %v", spec, objs, specOf(objs), again, err)
		}
	})
}

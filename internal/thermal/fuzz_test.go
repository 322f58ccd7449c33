package thermal

import "testing"

// FuzzParseThermal drives the -thermal flag parser with arbitrary
// specs: it must never panic, and an accepted model validates and
// starts cooled to ambient.
func FuzzParseThermal(f *testing.F) {
	f.Add("")
	f.Add("tau=2s,trip=88,start=70,floor=0.6,ambient=30,max=96")
	f.Add("trip=0")
	f.Add("start=80")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a model that fails Validate: %v", spec, err)
		}
		if m.TempC() != m.AmbientC {
			t.Fatalf("Parse(%q) starts at %g, want ambient %g", spec, m.TempC(), m.AmbientC)
		}
	})
}

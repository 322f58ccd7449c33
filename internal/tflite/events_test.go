package tflite

import (
	"testing"

	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// TestEventsPerInvoke pins how many engine events each of the first
// three MobileNet int8 Invokes fires on each delegate. On the CPU
// delegate every op fans out to 4 worker threads whose slices end at the
// same instant, and the scheduler ends them with one event, not four
// (228 events per Invoke before slice ends were grouped). The offloading
// delegates' first Invoke pays one extra event.
func TestEventsPerInvoke(t *testing.T) {
	for _, tc := range []struct {
		d    Delegate
		want [3]uint64
	}{
		{DelegateCPU, [3]uint64{57, 57, 57}},
		{DelegateNNAPI, [3]uint64{4, 3, 3}},
		{DelegateHexagon, [3]uint64{4, 3, 3}},
	} {
		rt := NewStack(soc.Pixel3(), 1)
		ip := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.UInt8, Options{Delegate: tc.d})
		ip.Init(nil)
		rt.Eng.Run()
		for i, want := range tc.want {
			before := rt.Eng.Fired()
			ip.Invoke(nil)
			rt.Eng.Run()
			if got := rt.Eng.Fired() - before; got != want {
				t.Errorf("%v invoke %d: fired %d events, want %d", tc.d, i, got, want)
			}
		}
	}
}

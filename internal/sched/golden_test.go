package sched_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"aitax/internal/driver"
	"aitax/internal/nn"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// streamRecorder renders every listener callback as one line.
type streamRecorder struct{ buf *bytes.Buffer }

func (r streamRecorder) OnRun(th *sched.Thread, core *sched.Core, start sim.Time, d time.Duration) {
	fmt.Fprintf(r.buf, "run %d %s core=%d d=%d\n", start, th.Name, core.ID, d)
}

func (r streamRecorder) OnMigrate(th *sched.Thread, from, to *sched.Core, at sim.Time) {
	fmt.Fprintf(r.buf, "migrate %d %s %d->%d\n", at, th.Name, from.ID, to.ID)
}

// contendedMix runs a 4-thread CPU-delegate segment, NNAPI's migratory
// reference-CPU thread, a higher-priority big-cluster background thread,
// an unpinned hog and a little-cluster thread on one scheduler, then a
// pair of simultaneous slice ends interleaved with another event. It
// returns the full listener stream followed by the per-core and
// scheduler-wide accounting.
func contendedMix(dvfs bool) string {
	eng := sim.NewEngine()
	cfg := sched.DefaultConfig()
	cfg.DVFS = dvfs
	sch := sched.New(eng, cfg)
	var buf bytes.Buffer
	sch.Subscribe(streamRecorder{&buf})

	b := nn.NewBuilder("g", 56, 56, 32)
	b.Conv(64, 3, 1).ReLU6().Conv(64, 1, 1).ReLU6().Conv(128, 3, 2).ReLU6()
	ops := b.Graph().Ops()
	p := soc.Pixel3()

	cpu := driver.NewCPUTarget("cpu", sch, &p.Big, 4)
	var segs int
	var runSeg func(driver.Result)
	runSeg = func(driver.Result) {
		if segs++; segs <= 3 {
			cpu.Execute(ops, tensor.Float32, runSeg)
		}
	}
	runSeg(driver.Result{})

	ref := driver.NewReferenceCPUTarget("ref", sch, &p.Big)
	ref.Execute(ops[:3], tensor.UInt8, nil)

	bg := sch.Spawn("bg", sched.BigOnly)
	bg.Priority = 1
	for i := 0; i < 6; i++ {
		d := time.Duration(1+i%3) * 3 * time.Millisecond
		eng.Schedule(sim.Time(i)*sim.Time(5*time.Millisecond), func() { bg.Exec(d, nil) })
	}

	hog := sch.Spawn("hog", nil)
	hog.Exec(30*time.Millisecond, nil)

	little := sch.Spawn("little", sched.LittleOnly)
	little.Exec(9*time.Millisecond, func() { little.Exec(2*time.Millisecond, nil) })

	// Two slices that end together, where the first one's completion
	// schedules an unrelated event at the instant both next slices end:
	// that event must still fire between the two slice ends.
	eng.Schedule(sim.Time(200*time.Millisecond), func() {
		p, q, r := sch.Spawn("p", sched.BigOnly), sch.Spawn("q", sched.BigOnly), sch.Spawn("r", nil)
		p.Exec(2*time.Millisecond, func() {
			p.Exec(2*time.Millisecond, nil)
			eng.After(2*time.Millisecond, func() { r.Exec(time.Millisecond, nil) })
		})
		q.Exec(2*time.Millisecond, func() {
			q.Exec(2*time.Millisecond, func() { q.Exec(time.Millisecond, nil) })
		})
	})

	end := eng.Run()
	fmt.Fprintf(&buf, "end %d\n", end)
	for _, c := range sch.Cores() {
		fmt.Fprintf(&buf, "core %d busy=%d\n", c.ID, c.BusyTime())
	}
	fmt.Fprintf(&buf, "switches=%d migrations=%d\n", sch.Switches(), sch.Migrations())
	return buf.String()
}

// TestListenerStreamGolden pins the scheduler's observable behaviour:
// every OnRun/OnMigrate callback with its virtual time, core and length,
// plus the accounting, for a contended mix with DVFS off and on.
func TestListenerStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		dvfs   bool
		golden string
	}{
		{false, "testdata/listener_dvfs_off.golden"},
		{true, "testdata/listener_dvfs_on.golden"},
	} {
		got := contendedMix(tc.dvfs)
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("dvfs=%v: listener stream diverged from %s\n--- got ---\n%s", tc.dvfs, tc.golden, got)
		}
	}
}

package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aitax"
)

// paperRuns is the iteration count of docs/RESULTS.txt.
const paperRuns = 50

// labParallel is the lab worker count, sized for a 2-CPU host.
const labParallel = 2

// paperWL is the paper workload: every experiment of
// aitax.Experiments() on the Pixel 3 as lab jobs, in repeated passes.
// One pass is what aitax-experiments does.
type paperWL struct {
	cfg    aitax.ExperimentConfig
	digest [32]byte
}

func newPaper(seed uint64) *paperWL {
	return &paperWL{cfg: paperConfig(seed)}
}

func paperConfig(seed uint64) aitax.ExperimentConfig {
	p, err := aitax.PlatformByName("Google Pixel 3")
	if err != nil {
		panic(err) // Table II always has the Pixel 3.
	}
	return aitax.ExperimentConfig{Platform: p, Seed: seed, SeedSet: true, Runs: paperRuns}
}

// experimentIDs lists every experiment id in paper order.
func experimentIDs() []string {
	var ids []string
	for _, e := range aitax.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// paperPass runs every experiment once as lab jobs and renders the
// results as aitax-experiments prints them after its header line. Job
// errors are returned in the results, not as err.
func paperPass(ctx context.Context, cfg aitax.ExperimentConfig, parallel int, tr *tracer) (string, []aitax.JobResult) {
	pass := tr.begin("lab.pass", 0)
	defer tr.end(pass)
	exps := aitax.Experiments()
	jobs := make([]aitax.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = aitax.Job{ID: e.ID, Run: func(ctx context.Context) (any, error) {
			s := tr.begin("bench."+e.ID, pass.id())
			defer tr.end(s)
			return e.RunCtx(ctx, cfg)
		}}
	}
	l := &aitax.Lab{Parallelism: parallel}
	var b strings.Builder
	b.WriteString("\n")
	results := l.RunEmit(ctx, jobs, func(r aitax.JobResult) {
		if r.Err == nil {
			fmt.Fprintln(&b, r.Value.(*aitax.ExperimentResult).Render())
		}
	})
	return b.String(), results
}

func firstErr(results []aitax.JobResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.ID, r.Err)
		}
	}
	return nil
}

// setUp runs the first, cold pass: plan compilation and every lazily
// built table are paid here.
func (w *paperWL) setUp(ctx context.Context, tr *tracer) error {
	out, res := paperPass(ctx, w.cfg, labParallel, tr)
	w.digest = sha256.Sum256([]byte(out))
	return firstErr(res)
}

// check compares a seed-42 pass with docs/RESULTS.txt and a pass at
// parallelism 1 with the set-up pass.
func (w *paperWL) check(ctx context.Context, root string) error {
	ref, err := os.ReadFile(filepath.Join(root, "docs", "RESULTS.txt"))
	if err != nil {
		return err
	}
	out, res := paperPass(ctx, paperConfig(42), labParallel, nil)
	if err := firstErr(res); err != nil {
		return err
	}
	if err := sameText("docs/RESULTS.txt", afterFirstLine(string(ref)), out); err != nil {
		return err
	}
	out, res = paperPass(ctx, w.cfg, 1, nil)
	if err := firstErr(res); err != nil {
		return err
	}
	if sha256.Sum256([]byte(out)) != w.digest {
		return fmt.Errorf("seed %d: output at lab parallelism 1 differs from parallelism %d", w.cfg.Seed, labParallel)
	}
	return nil
}

// minOps: 40 passes support a p75 tail.
func (w *paperWL) minOps() int { return 40 }

// measure repeats warm passes. Its latency is a pass's wall time, the
// time to regenerate every result; attempted and failed count
// experiments.
func (w *paperWL) measure(ctx context.Context, d time.Duration, full bool, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var rates []float64
	start := time.Now()
	for time.Since(start) < d || (full && len(m.lat) < w.minOps() && m.failed == 0) {
		t0 := time.Now()
		out, res := paperPass(ctx, w.cfg, labParallel, tr)
		wall := time.Since(t0)
		m.endPass()
		failed := 0
		for _, r := range res {
			if r.Err != nil {
				failed++
			}
		}
		m.attempted += len(res)
		m.failed += failed
		if failed > 0 {
			continue
		}
		m.lat = append(m.lat, ms(wall))
		rates = append(rates, float64(len(res))/wall.Seconds())
		if sha256.Sum256([]byte(out)) != w.digest {
			m.wrong++
		}
	}
	m.throughput = median(rates)
	return m, nil
}

func (w *paperWL) layers(tr *tracer, out map[string]float64) {
	for _, id := range experimentIDs() {
		out["bench.exp_ms."+id] = median(tr.named("bench." + id))
	}
	// Per pass: the job that finished last, and the share of the pass
	// the workers spent inside jobs.
	var tails, busy []float64
	for _, p := range tr.spansNamed("lab.pass") {
		var last *span
		var inJobs time.Duration
		for _, c := range tr.children(p.ID) {
			inJobs += c.End - c.Start
			if last == nil || c.End > last.End {
				last = c
			}
		}
		if last != nil {
			tails = append(tails, ms(last.End-last.Start))
			busy = append(busy, float64(inJobs)/float64(labParallel*(p.End-p.Start)))
		}
	}
	out["lab.tail_job_ms"] = median(tails)
	out["lab.busy_share"] = median(busy)
}

func (w *paperWL) close() {}

// afterFirstLine drops a reference file's header line.
func afterFirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return ""
}

// sameText reports the first differing line between a reference and
// an output.
func sameText(refName, want, got string) error {
	if want == got {
		return nil
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Errorf("output differs from %s at line %d:\n  want %q\n  got  %q", refName, i+1, w, g)
		}
	}
	return fmt.Errorf("output differs from %s", refName)
}

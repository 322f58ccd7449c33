GO ?= go

.PHONY: all build test test-norace vet bench bench-smoke bench-wall experiments validate results examples trace-demo chaos-demo serve-smoke slo-demo brownout-demo fleet-demo clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet + race so the concurrent lab runner is race-checked on every run.
test: vet
	$(GO) test -race ./...

# Plain (no -race) test run, for hosts without race-detector support.
test-norace:
	$(GO) test ./...

# Full test log, as the release process captures it.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Full benchmark sweep -> raw log + dated JSON report for the
# regression gate. Compare two reports with:
#   go run ./cmd/aitax-bench -compare OLD.json NEW.json
BENCH_DATE ?= $(shell date +%Y-%m-%d)
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/aitax-bench -parse bench_output.txt -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Packages covered by the CI benchmark gates (the root package carries
# the pixel kernels and the cold-path benchmarks — ColdStart, DriverFix,
# DVFSRamp — that the arena work is locked in by).
BENCH_PKGS = . ./internal/benchfmt/ ./internal/par/ ./internal/stats/ ./internal/obs/ ./internal/qos/ ./internal/telemetry/ ./internal/plan/ ./internal/fleet/
BENCH_BASELINE ?= BENCH_2026-08-08_fleet.json

# Quick allocation/regression smoke: one iteration per benchmark, parsed
# into BENCH_smoke.json (a scratch file — the committed dated baselines
# are never overwritten) and gated against the committed baseline in
# allocs-only mode: 1-iteration wall times and warm-up alloc counts are
# noise, but an allocation creeping onto a zero-alloc hot path fails the
# build exactly. CI's bench-smoke job runs this, then bench-wall.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' $(BENCH_PKGS) 2>&1 | tee bench_smoke.txt
	$(GO) run ./cmd/aitax-bench -parse bench_smoke.txt -date $(BENCH_DATE) -out BENCH_smoke.json
	$(GO) run ./cmd/aitax-bench -compare -allocs-only $(BENCH_BASELINE) BENCH_smoke.json

# Wall-time gate, two halves (see docs/PERF.md "Wall-time gate").
#
# Half 1: the perf-critical benchmarks — the three arena cold paths and
# the zero-alloc pixel kernels — rerun at 1s/benchmark, best of 5 counts
# (Parse keeps the fastest run, which clips one-sided scheduler noise),
# and gated against the committed baseline in -wall mode: 1-iteration
# entries are skipped, ns/op below the floor is reported but not judged,
# and steady-state allocs/op is gated exactly. The threshold is wide
# (60%) because cross-run wall time on shared hardware jitters ±30%;
# the gate exists to catch gross regressions such as losing the arena
# (ColdStart ns and allocs both jump >4x).
#
# Half 2: in-process A/B — each SWAR kernel races the scalar reference
# it replaced, interleaved in one process so machine noise cancels.
# This is what pins "measurably faster": it detects a 3% loss where the
# cross-run gate cannot.
BENCH_WALL_PAT = ^Benchmark(ColdStart|DriverFix|DVFSRamp|YUVToARGB480pInto|ARGBToYUV480pInto|Normalize224Into|QuantizeInput224Into|ResizeBilinearTo224Into|ResizeNormalize224Into|ResizeQuantize224Into)$$
bench-wall:
	$(GO) test -bench='$(BENCH_WALL_PAT)' -benchtime=1s -benchmem -count=5 -run '^$$' . 2>&1 | tee bench_wall.txt
	$(GO) run ./cmd/aitax-bench -parse bench_wall.txt -date $(BENCH_DATE) -out BENCH_wall.json
	$(GO) run ./cmd/aitax-bench -compare -wall -threshold 0.60 -ns-floor 25000 $(BENCH_BASELINE) BENCH_wall.json
	AITAX_WALL_GATE=1 $(GO) test -run TestWallGate -v ./internal/imaging/ ./internal/preproc/

# Regenerate every paper table/figure plus the extensions.
experiments:
	$(GO) run ./cmd/aitax-experiments

# CI-style gate: exit non-zero if any paper shape check regressed.
validate:
	$(GO) run ./cmd/aitax-validate

# Fault-injection gate under the race detector: one model per target
# under a fixed fault plan, byte-identical at any worker-pool width
# (see docs/FAULTS.md).
chaos-demo:
	$(GO) run -race ./cmd/aitax-validate -chaos

# Refresh the committed reference results (docs/RESULTS.txt).
results:
	mkdir -p docs
	$(GO) run ./cmd/aitax-experiments -runs 50 > docs/RESULTS.txt
	$(GO) run ./cmd/aitax-experiments -runs 50 -format markdown > docs/RESULTS.md

examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done; echo all examples ran

# Smoke the whole telemetry path: traced run -> Chrome trace + metrics
# + span log, then sanity-check the files exist and are non-empty.
trace-demo:
	$(GO) run ./cmd/aitax-trace -model MobileNetV1 -delegate hexagon -frames 20 \
		-chrome trace_demo.json -metrics trace_demo.prom -jsonl trace_demo.jsonl
	@for f in trace_demo.json trace_demo.prom trace_demo.jsonl; do \
		test -s $$f || { echo "$$f missing or empty"; exit 1; }; done
	@echo "trace-demo ok: open trace_demo.json in ui.perfetto.dev"

# Serving smoke: the deterministic load simulation diffed against the
# committed golden report, at two worker-pool widths to prove the
# report is parallelism-independent (see docs/SERVE.md).
serve-smoke:
	$(GO) run ./cmd/aitax-serve -loadgen > serve_smoke.txt
	diff -u cmd/aitax-serve/testdata/load_report.golden serve_smoke.txt
	$(GO) run ./cmd/aitax-serve -loadgen -parallel 1 | diff -u cmd/aitax-serve/testdata/load_report.golden -
	@echo "serve-smoke ok: load report matches golden at any parallelism"

# SLO smoke: the load simulation with burn-rate monitoring enabled,
# diffed against the committed golden so the SLO report (compliance,
# budget burn, alert timeline) stays deterministic (see docs/SERVE.md).
slo-demo:
	$(GO) run ./cmd/aitax-serve -loadgen -slo "MobileNet 1.0 v1=4ms@95,all=6ms@90" > slo_demo.txt
	diff -u cmd/aitax-serve/testdata/slo_report.golden slo_demo.txt
	$(GO) run ./cmd/aitax-serve -loadgen -slo "MobileNet 1.0 v1=4ms@95,all=6ms@90" -parallel 1 | diff -u cmd/aitax-serve/testdata/slo_report.golden -
	@echo "slo-demo ok: burn-rate report matches golden at any parallelism"

# Brownout smoke: the pinned overload storm with the QoS brownout
# controller enabled, its report, -metrics and -obs exports diffed
# against the committed goldens (the full degradation anatomy and both
# export formats stay deterministic), then the aitax-validate
# graceful-degradation gate — ladder engages and recovers, only
# best-effort is shed, and the controller holds the interactive p99
# inside an objective the frozen baseline violates (see docs/QOS.md).
brownout-demo:
	$(GO) run ./cmd/aitax-serve -loadgen \
		-models "MobileNet 1.0 v1,EfficientNet-Lite0" \
		-slo "EfficientNet-Lite0=350ms@95" \
		-qos "tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15" \
		-downshift "EfficientNet-Lite0=MobileNet 1.0 v1" \
		-mix "EfficientNet-Lite0=2,EfficientNet-Lite0=2:best-effort,EfficientNet-Lite0=1:interactive" \
		-ramp 300x300ms,4x3s -seed 11 -queue-depth 64 \
		-metrics brownout_demo.prom -obs brownout_demo.jsonl > brownout_demo.txt
	diff -u cmd/aitax-serve/testdata/brownout_report.golden brownout_demo.txt
	diff -u cmd/aitax-serve/testdata/brownout_metrics.golden brownout_demo.prom
	diff -u cmd/aitax-serve/testdata/brownout_obs.golden brownout_demo.jsonl
	$(GO) run ./cmd/aitax-validate -brownout
	@echo "brownout-demo ok: degradation anatomy matches golden and the gate passed"

# Fleet smoke: the sharded 10k-device population simulation, diffed
# against the committed golden at three (-parallel, -shards) shapes to
# prove the report is sharding- and parallelism-independent, then the
# population JSONL export (see docs/FLEET.md). The golden is recorded
# at 2000 devices to keep CI fast; the 10k contract is pinned by
# TestFleetMemoryFlatAt10k.
fleet-demo:
	$(GO) run ./cmd/aitax-fleet -devices 2000 -seed 42 > fleet_demo.txt
	diff -u cmd/aitax-fleet/testdata/fleet_report.golden fleet_demo.txt
	$(GO) run ./cmd/aitax-fleet -devices 2000 -seed 42 -parallel 1 -shards 7 | diff -u cmd/aitax-fleet/testdata/fleet_report.golden -
	$(GO) run ./cmd/aitax-fleet -devices 2000 -seed 42 -parallel 8 -shards 64 -jsonl fleet_population.jsonl | diff -u cmd/aitax-fleet/testdata/fleet_report.golden -
	@test -s fleet_population.jsonl || { echo "fleet_population.jsonl missing or empty"; exit 1; }
	@echo "fleet-demo ok: population report matches golden at any sharding"

clean:
	rm -f test_output.txt bench_output.txt bench_smoke.txt BENCH_smoke.json bench_wall.txt BENCH_wall.json trace_demo.json trace_demo.prom trace_demo.jsonl serve_smoke.txt slo_demo.txt brownout_demo.txt brownout_demo.prom brownout_demo.jsonl fleet_demo.txt fleet_population.jsonl

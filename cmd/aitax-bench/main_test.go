package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aitax"
)

// runBench drives the command in-process and returns its exit code,
// stdout and stderr.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBenchList(t *testing.T) {
	code, out, errOut := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if got, want := strings.Split(strings.TrimSpace(out), "\n"), aitax.ModelNames(); len(got) != len(want) {
		t.Fatalf("listed %d models, want %d:\n%s", len(got), len(want), out)
	}
	if !strings.Contains(out, "MobileNet 1.0 v1\n") {
		t.Fatalf("-list is missing MobileNet 1.0 v1:\n%s", out)
	}
}

func TestBenchRejectsUnknownVocabulary(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dtype", "fp64"}, `unknown dtype "fp64"`},
		{[]string{"-delegate", "tpu"}, `unknown delegate "tpu"`},
		// A misspelt library used to measure libc++ without a word.
		{[]string{"-stdlib", "libstdcxx"}, `unknown stdlib "libstdcxx"`},
	} {
		code, out, errOut := runBench(t, append(tc.args, "-runs", "1")...)
		if code == 0 {
			t.Errorf("%v: exit 0, want non-zero (stdout:\n%s)", tc.args, out)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: stderr %q does not name the error %q", tc.args, errOut, tc.want)
		}
		if out != "" {
			t.Errorf("%v: measured despite the bad flag:\n%s", tc.args, out)
		}
	}
}

// TestBenchMeasuresBothStdLibs: the two accepted libraries measure
// different input-generation costs for a quantized model (§IV-A).
func TestBenchMeasuresBothStdLibs(t *testing.T) {
	reports := map[string]string{}
	for _, lib := range []string{"libc++", "libstdc++"} {
		code, out, errOut := runBench(t, "-dtype", "int8", "-stdlib", lib, "-runs", "3")
		if code != 0 {
			t.Fatalf("-stdlib %s: exit %d, stderr:\n%s", lib, code, errOut)
		}
		if !strings.Contains(out, "runs=3") || !strings.Contains(out, "distribution") {
			t.Fatalf("-stdlib %s: unexpected report:\n%s", lib, out)
		}
		reports[lib] = out
	}
	if reports["libc++"] == reports["libstdc++"] {
		t.Fatalf("-stdlib libstdc++ measured the same as libc++:\n%s", reports["libc++"])
	}
}

// benchOutput is three `go test -bench -benchmem` result lines.
const benchOutput = `BenchmarkAlpha-2   	    1000	      1500 ns/op	      64 B/op	       2 allocs/op
BenchmarkBeta-2    	     500	      3000 ns/op	       0 B/op	       0 allocs/op
BenchmarkGamma-2   	     200	      9000 ns/op	     128 B/op	       4 allocs/op
`

func TestBenchParseAndSelfCompare(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(benchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runBench(t, "-parse", in, "-date", "2026-01-02")
	if code != 0 {
		t.Fatalf("-parse: exit %d, stderr:\n%s", code, errOut)
	}
	var rep struct {
		Date       string `json:"date"`
		Benchmarks []struct {
			Name        string  `json:"name"`
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-parse did not print a JSON report: %v\n%s", err, out)
	}
	if rep.Date != "2026-01-02" || len(rep.Benchmarks) != 3 {
		t.Fatalf("report date %q with %d benchmarks, want 2026-01-02 with 3:\n%s", rep.Date, len(rep.Benchmarks), out)
	}
	if b := rep.Benchmarks[0]; b.Name != "BenchmarkAlpha" || b.NsPerOp != 1500 || b.AllocsPerOp != 2 {
		t.Fatalf("first entry %+v, want BenchmarkAlpha at 1500 ns/op, 2 allocs/op", b)
	}

	report := filepath.Join(dir, "report.json")
	if code, _, errOut := runBench(t, "-parse", in, "-date", "2026-01-02", "-out", report); code != 0 {
		t.Fatalf("-parse -out: exit %d, stderr:\n%s", code, errOut)
	}
	code, out, errOut = runBench(t, "-compare", report, report)
	if code != 0 {
		t.Fatalf("-compare of a report against itself: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "OK: no regressions") {
		t.Fatalf("-compare output missing the OK verdict:\n%s", out)
	}
}

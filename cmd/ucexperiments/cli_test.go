package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"essdsim/internal/harness"
)

// runMainEnv makes the test binary run main() instead of the tests, so the
// CLI tests below exercise the real flag parsing, stdout, stderr, and exit
// status of ucexperiments.
const runMainEnv = "UCEXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs ucexperiments with args in dir and returns its stdout,
// stderr, and exit status.
func runCLI(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// msrAggr is the three-record MSR-Cambridge trace the CI smoke fits the
// neighbor suite's aggressors from.
const msrAggr = "128166372003061629,src1,0,Write,8192,262144,1331\n" +
	"128166372013061629,src1,0,Write,524288,262144,551\n" +
	"128166372023061629,src1,0,Read,4096,4096,100\n"

// TestCLIGoldenOutputs pins ucexperiments' stdout byte for byte (against
// testdata/*.golden) and its output files by sha256: the burst suite with
// -out CSVs, the KV suite cold then cache-warm, the neighbor suite with
// both observability planes and the attribution report, the neighbor
// suite with trace-fitted aggressors, and the quick Figure 3 pass.
func TestCLIGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the CLI end to end; covered by the non-short runs")
	}
	type run struct {
		golden string // testdata file holding the run's expected stdout
		args   string
	}
	kv := "-exp kv -quick -workers 2 -cache c.json"
	for _, tc := range []struct {
		name  string
		runs  []run
		files map[string]string // output file -> sha256 after the last run
	}{
		{"burst-out", []run{{"burst", "-exp burst -quick -workers 2 -out out"}},
			map[string]string{
				"out/burst_cells.csv":    "47c39630d9f526b17a2c08fa4f4fa30e891a7df42832a10e831f125e686e081e",
				"out/burst_timeline.csv": "9590a54b7297b56abce08a0f4f319455718c961eab0c5ebb141dc0679b054882",
			}},
		{"kv-cache", []run{{"kv-cold", kv}, {"kv-warm", kv}},
			map[string]string{"c.json": "44e91d7faf7fcb9dbdacfe93a47d969f1c699a186b70a3378544693f5a6ef95a"}},
		{"neighbor-obs", []run{{"neighbor-obs",
			"-exp neighbor -quick -workers 2 -trace-out t.json -trace-sample 16 -probe-out p.csv -probe-interval 5ms -explain"}},
			map[string]string{
				"t.json": "743c4fb82267803094dd69bfe82cd3bca21ff16984492d6b8bfb69bdeee75310",
				"p.csv":  "9feeafa9f817b8e7f309a13f0e195b526c5e28fed732fd9ef1adb9ac39cf3fc5",
			}},
		{"neighbor-aggr-trace", []run{{"neighbor-aggr-trace",
			"-exp neighbor -quick -workers 2 -aggr-trace msr-aggr.csv -aggr-trace-format msr"}}, nil},
		{"fig3-quick", []run{{"fig3-quick", "-exp fig3 -quick -workers 2"}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "msr-aggr.csv"), []byte(msrAggr), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.runs {
				stdout, stderr, code := runCLI(t, dir, strings.Fields(r.args)...)
				if code != 0 {
					t.Fatalf("ucexperiments %s: exit %d\n%s", r.args, code, stderr)
				}
				want, err := os.ReadFile(filepath.Join("testdata", r.golden+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if stdout != string(want) {
					t.Errorf("ucexperiments %s: stdout differs from testdata/%s.golden:\n%s", r.args, r.golden, stdout)
				}
			}
			for name, want := range tc.files {
				if got := fileSHA256(t, filepath.Join(dir, name)); got != want {
					t.Errorf("%s: sha256 %s, pinned %s", name, got, want)
				}
			}
		})
	}
}

// TestFig3HeaderMultiple: the Figure 3 header names the volume the run
// actually writes, 1.5x capacity under -quick and the paper's 3x
// otherwise. (The quick header is also pinned by the fig3-quick golden.)
func TestFig3HeaderMultiple(t *testing.T) {
	for _, c := range []struct {
		quick bool
		want  string
	}{
		{true, "Figure 3 — Runtime throughput, random write of 1.5x capacity\n"},
		{false, "Figure 3 — Runtime throughput, random write of 3x capacity\n"},
	} {
		var buf bytes.Buffer
		harness.FormatFig3(&buf, fig3CapMultiple(c.quick), nil)
		if got := buf.String(); got != c.want {
			t.Errorf("quick=%v: header %q, want %q", c.quick, got, c.want)
		}
	}
}

// TestCLIGoldenErrors runs every invalid flag combination the CI
// error-path and KV smokes check: each must exit 1 with one
// "ucexperiments:" line on stderr, never a panic or a silent success.
func TestCLIGoldenErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notadir"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{
		"-exp neighbor -isolation bogus",
		"-exp churn -rebalance bogus",
		"-exp churn -quick -churn-rate -1",
		"-exp burst -quick -trace-out t.csv",
		"-exp neighbor -quick -trace-sample 0 -trace-out t.csv",
		"-exp neighbor -quick -probe-out p.csv",
		"-exp kv -kv-engines rocksdb",
		"-exp kv -kv-skews 1.5",
		"-exp kv -quick -kv-skews NaN",
		"-exp kv -kv-tiers ssd",
		"-exp table1 stray-arg",
		"-exp bogus",
		"-exp neighbor -quick -aggr-arrival uniform",
		"-exp burst -quick -out notadir/x",
		"-exp kv -quick -kv-skews 0,,0.99",
		"-exp kv -quick -kv-engines lsm,",
		"-exp fleet -quick -fleet-policy spread,",
	} {
		_, stderr, code := runCLI(t, dir, strings.Fields(args)...)
		if code != 1 || !strings.HasPrefix(stderr, "ucexperiments: ") {
			t.Errorf("ucexperiments %s: exit %d, stderr %q; want exit 1 and a ucexperiments: diagnostic", args, code, stderr)
		}
	}
}

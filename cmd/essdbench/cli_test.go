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
)

// runMainEnv makes the test binary run main() instead of the tests, so the
// CLI tests below exercise the real flag parsing, stdout, stderr, and exit
// status of essdbench.
const runMainEnv = "ESSDBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs essdbench with args in dir and returns its stdout, stderr,
// and exit status.
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

// TestCLIGoldenOutputs pins essdbench's stdout byte for byte (against
// testdata/*.golden) and its output files by sha256, across every run
// mode: the open-loop sweep cold then cache-warm, a closed sweep, the
// single closed and open runs with trace and probe capture, the MSR
// trace replay, and the SLO search through a cache file.
func TestCLIGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the CLI end to end; covered by the non-short runs")
	}
	type run struct {
		golden string // testdata file holding the run's expected stdout
		args   string
	}
	open := "-device gp2,gp2s -rw randwrite -bs 256k -rate 1500,3000 -arrival uniform,bursty -ops 800 -workers 2 -cache c.json"
	slo := "-device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 200,3000 -cache s.json"
	for _, tc := range []struct {
		name  string
		runs  []run
		files map[string]string // output file -> sha256 after the last run
	}{
		{"open-sweep-cache", []run{{"open-cold", open}, {"open-warm", open}},
			map[string]string{"c.json": "7a470f20c7dbee3cc1ebf1c8cde678957f68a2d69f6c5bd1260e13def3011c81"}},
		{"closed-sweep", []run{{"closed-sweep",
			"-device essd1,ssd -rw randwrite,write -bs 4k,64k -iodepth 1,8 -runtime 200ms -warmup 20ms -workers 2"}}, nil},
		{"single-closed-obs", []run{{"single-closed",
			"-device essd1 -rw randread -bs 4k -iodepth 4 -runtime 200ms -trace-out t.json -probe-out p.csv -probe-interval 5ms"}},
			map[string]string{
				"t.json": "603e2e16e23a514e5c96378cfc9e773479e9591d967b852fbb98081f5d95fff9",
				"p.csv":  "507f5f8b96c72e864bd2466015194ca92bb0cc734c89f05d6a72e760b9b8bd04",
			}},
		{"single-open-obs", []run{{"single-open",
			"-device essd1 -rw randwrite -bs 256k -rate 2000 -ops 600 -trace-out t.csv -probe-out p.json -probe-interval 2ms"}},
			map[string]string{
				"t.csv":  "b4002c5daec17fb1b087558c15092dda5b6ac91feee8fc7bf959785aab878619",
				"p.json": "149d8963e2ad97ec7badcbe8683905fd3a93be7b7dee6ccb47152a4474ba189b",
			}},
		{"trace-replay", []run{{"trace-replay", "-device essd1,essd2 -trace msr.csv -trace-format msr -workers 2"}}, nil},
		{"slo-search-cache", []run{{"slo-cold", slo}, {"slo-warm", slo}},
			map[string]string{"s.json": "074789f0e071e0bf2cb540a5b07627f7d67f0f5287ab86a8be1a292b4c98ba06"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "msr.csv"), []byte(msrTrace), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.runs {
				stdout, stderr, code := runCLI(t, dir, strings.Fields(r.args)...)
				if code != 0 {
					t.Fatalf("essdbench %s: exit %d\n%s", r.args, code, stderr)
				}
				want, err := os.ReadFile(filepath.Join("testdata", r.golden+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if stdout != string(want) {
					t.Errorf("essdbench %s: stdout differs from testdata/%s.golden:\n%s", r.args, r.golden, stdout)
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

// TestCLIGoldenErrors runs every invalid flag and spec combination the CI
// error-path smoke checks: each must exit 1 with one "essdbench:" line on
// stderr, never a panic or a silent success.
func TestCLIGoldenErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "msr.csv"), []byte(msrTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{
		"-device nope -rw randwrite -bs 4k",
		"-device essd1 -rw bogus -bs 4k",
		"-device essd1 -rw randwrite -bs 3k -runtime 100ms",
		"-device essd1 -rw randwrite -bs 4k stray-arg",
		"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -iodepth 1,8",
		"-device essd1 -rw randrw -rwmixwrite 150 -bs 4k",
		"-device gp2s -slo-p99 20ms -slo-range 3000,200",
		"-device gp2s -slo-p99 20ms -iodepth 1,8",
		"-device essd1 -trace missing.trace",
		"-device essd1 -trace msr.csv -trace-format msr -rate 100",
		"-device essd1 -trace msr.csv -trace-format bogus",
		"-device essd1 -trace msr.csv -trace-format msr -cache c.json",
		"-device essd1 -rw randread -bs 4k -cache c.json",
		"-device essd1 -rw randread -bs 4k -isolation bogus",
		"-device ssd -rw randread -bs 4k -isolation wfq",
		"-device essd1 -rw randread -bs 4k -weight 2",
		"-device essd1 -rw randwrite -bs 4k -runtime 100ms -trace-sample 0 -trace-out t.csv",
		"-device essd1 -rw randwrite -bs 4k -runtime 100ms -probe-out p.csv",
		"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500 -ops 200 -trace-out t.csv",
		"-device gp2 -rw randread -bs 4k -rate NaN -ops 200",
	} {
		_, stderr, code := runCLI(t, dir, strings.Fields(args)...)
		if code != 1 || !strings.HasPrefix(stderr, "essdbench: ") {
			t.Errorf("essdbench %s: exit %d, stderr %q; want exit 1 and an essdbench: diagnostic", args, code, stderr)
		}
	}
	// A warmup at or past the runtime would measure nothing, and an empty
	// list item is a typo: both fail before anything runs or prints.
	for _, tc := range []struct{ args, want string }{
		{"-device essd1 -rw randread -bs 4k -runtime 50ms", "warmup"},
		{"-device essd1 -rw randread -bs 4k -runtime 100ms", "warmup"},
		{"-device essd1,ssd -rw randread -bs 4k -runtime 50ms", "warmup"},
		{"-device essd1 -rw randwrite,,write -bs 4k -runtime 200ms", "-rw: empty item"},
		{"-device essd1, -rw randwrite,write -bs 4k -runtime 200ms", "-device: empty item"},
		{"-device gp2,gp2s -rw randwrite -bs 256k -rate 1500, -ops 200", "-rate: empty item"},
		{"-device gp2,gp2s -rw randwrite -bs 256k, -rate 1500 -ops 200", "-bs: empty item"},
		{"-device essd1,,essd2 -trace msr.csv -trace-format msr", "-device: empty item"},
	} {
		stdout, stderr, code := runCLI(t, dir, strings.Fields(tc.args)...)
		if code != 1 || !strings.HasPrefix(stderr, "essdbench: ") || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("essdbench %s: exit %d, stdout %q, stderr %q; want exit 1, no output, and an essdbench: %s diagnostic",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

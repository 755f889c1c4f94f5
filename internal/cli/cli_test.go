package cli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
)

func atoi(s string) (int, error) { return strconv.Atoi(s) }

func TestListTrimsAndParses(t *testing.T) {
	got, err := List("iodepth", " 1, 8 ,32", atoi)
	if err != nil || !reflect.DeepEqual(got, []int{1, 8, 32}) {
		t.Fatalf("List = %v, %v; want [1 8 32]", got, err)
	}
	names, err := Strings("device", "essd1")
	if err != nil || !reflect.DeepEqual(names, []string{"essd1"}) {
		t.Fatalf("Strings = %v, %v; want [essd1]", names, err)
	}
}

func TestListRejectsEmptyItems(t *testing.T) {
	for _, s := range []string{"", " ", "1,,8", "1,8,", ",1", "1, ,8"} {
		_, err := List("iodepth", s, atoi)
		if err == nil || !strings.HasPrefix(err.Error(), "-iodepth: empty item") {
			t.Errorf("List(%q) error %v; want an empty-item error naming -iodepth", s, err)
		}
	}
}

func TestListRejectsBadItems(t *testing.T) {
	_, err := List("kv-skews", "0,zero", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err == nil || !strings.HasPrefix(err.Error(), "-kv-skews: ") || !strings.Contains(err.Error(), `"zero"`) {
		t.Errorf("error %v; want one naming -kv-skews and the bad item", err)
	}
}

// parseArgs registers the shared flags on a fresh flag set and parses args.
func parseArgs(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	f := register(fs, "test", 7)
	err := f.parse(fs, args)
	if err == nil {
		t.Cleanup(f.stopProfiles)
	}
	return f, err
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray"}, "unexpected argument"},
		{[]string{"-trace-sample", "0"}, "-trace-sample"},
		{[]string{"-probe-out", "p.csv"}, "-probe-interval"},
		{[]string{"-probe-out", "p.csv", "-probe-interval", "-1ms"}, "-probe-interval"},
		{[]string{"-isolation", "bogus"}, "bogus"},
	} {
		if _, err := parseArgs(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v; want one mentioning %s", tc.args, err, tc.want)
		}
	}
}

func TestParseObsAndDefaults(t *testing.T) {
	f, err := parseArgs(t)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != 7 || f.Workers != 0 || f.Cache != nil || f.Capturing() || f.Isolation.Enabled() {
		t.Errorf("defaults: seed %d workers %d cache %v capturing %v isolation %v",
			f.Seed, f.Workers, f.Cache, f.Capturing(), f.Isolation)
	}
	if f.Progress("x") != nil {
		t.Error("progress callback without -v")
	}
	f, err = parseArgs(t, "-trace-sample", "16", "-probe-out", "p.csv", "-probe-interval", "5ms",
		"-isolation", "wfq", "-v")
	if err != nil {
		t.Fatal(err)
	}
	want := obs.Config{SampleEvery: 16, ProbeInterval: 5 * sim.Millisecond}
	if f.Obs != want || !f.Capturing() || f.Isolation.Policy != qos.IsolationWFQ || f.Progress("x") == nil {
		t.Errorf("obs %+v capturing %v isolation %v", f.Obs, f.Capturing(), f.Isolation)
	}
}

// TestWriteObsPicksFormatBySuffix checks that a .json path gets the JSON
// writer and any other path the CSV one, for both traces and probes.
func TestWriteObsPicksFormatBySuffix(t *testing.T) {
	dir := t.TempDir()
	caps := []*obs.Capture{{Label: "c", Tracer: obs.NewTracer(1), Prober: obs.NewProber(sim.Millisecond)}}
	for _, tc := range []struct{ trace, probe string }{
		{"t.json", "p.csv"},
		{"t.csv", "p.json"},
	} {
		f := &Flags{traceOut: filepath.Join(dir, tc.trace), probeOut: filepath.Join(dir, tc.probe)}
		if err := f.WriteObs(caps...); err != nil {
			t.Fatal(err)
		}
		for path, csvHeader := range map[string]string{
			f.traceOut: "cell,req,volume,",
			f.probeOut: "cell,t_s,probe,value",
		} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(path, ".json") {
				if !json.Valid(b) {
					t.Errorf("%s is not JSON: %q", path, b)
				}
			} else if !strings.HasPrefix(string(b), csvHeader) {
				t.Errorf("%s: want the CSV header %q, got %q", path, csvHeader, b)
			}
		}
	}
	// Unset paths write nothing.
	if err := (&Flags{}).WriteObs(caps...); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReportsErrors(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(filepath.Join(notDir, "x.csv"), func(w io.Writer) error { return nil })
	if err == nil {
		t.Error("WriteFile under a regular file succeeded")
	}
}

func TestReadTrace(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(empty, "text"); err == nil || !strings.Contains(err.Error(), "no records") {
		t.Errorf("empty trace: error %v; want a no-records error", err)
	}
	if _, err := ReadTrace(filepath.Join(dir, "missing.trace"), "text"); err == nil {
		t.Error("missing trace accepted")
	}
	msr := filepath.Join(dir, "msr.csv")
	if err := os.WriteFile(msr, []byte("128166372003061629,src1,0,Write,8192,16384,1331\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadTrace(msr, "msr"); err != nil || len(recs) != 1 {
		t.Errorf("msr trace: %d records, %v; want 1", len(recs), err)
	}
}

package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"greedy80211/internal/runner"
)

// quickRefdata writes a minimal single-artifact golden dir so the CLI
// tests simulate for milliseconds. want 31 sits at the measured GS CW
// for any seed (CWmin pinning), so the positive case is robust.
const quickBody = `{
  "artifact": "fig2",
  "claim": "GS CW pins at CWmin",
  "config": {"seeds": 1, "duration": "200ms", "quick": true},
  "checks": [
    {"id": "gs-cw", "kind": "point", "series": "GS avg CW", "x": 0,
     "want": 31, "pass": {"rel": 0.25}}
  ]
}`

// tamperedBody is the same check with an impossible golden value — the
// shape of CI's negative test (tamper a copy, expect the gate to trip).
const tamperedBody = `{
  "artifact": "fig2",
  "claim": "GS CW pins at CWmin",
  "config": {"seeds": 1, "duration": "200ms", "quick": true},
  "checks": [
    {"id": "gs-cw", "kind": "point", "series": "GS avg CW", "x": 0,
     "want": 1e6, "pass": {"rel": 0.01}}
  ]
}`

func writeDir(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fig2.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runCLI(t *testing.T, args ...string) int {
	t.Helper()
	defer runner.SetLimit(runtime.GOMAXPROCS(0))
	return run(args)
}

func TestRunGatePassesAndWritesOutputs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "RESULTS.md")
	verdicts := filepath.Join(t.TempDir(), "verdicts.json")
	code := runCLI(t, "-refdata", writeDir(t, quickBody),
		"-out", out, "-verdicts", verdicts, "-bench", "")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, f := range []string{out, verdicts} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("output %s missing or empty (err=%v)", f, err)
		}
	}
}

func TestRunGateFailsOnTamperedRefdata(t *testing.T) {
	code := runCLI(t, "-refdata", writeDir(t, tamperedBody),
		"-out", filepath.Join(t.TempDir(), "RESULTS.md"), "-verdicts", "", "-bench", "")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (tampered golden value must trip the gate)", code)
	}
}

func TestRunGateFailsOnColdStoreNoCompute(t *testing.T) {
	code := runCLI(t, "-refdata", writeDir(t, quickBody),
		"-store", t.TempDir(), "-no-compute",
		"-out", filepath.Join(t.TempDir(), "RESULTS.md"), "-verdicts", "", "-bench", "")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (cold store in read-only mode gates as missing)", code)
	}
}

func TestRunCheckDocsCurrent(t *testing.T) {
	// The committed EXPERIMENTS.md block must be current against the
	// embedded refdata — same invariant CI's docs step enforces.
	if code := runCLI(t, "-check-docs", "-docs", filepath.Join("..", "..", "EXPERIMENTS.md")); code != 0 {
		t.Fatalf("-check-docs exit %d, want 0 (run `go run ./cmd/report -write-docs`)", code)
	}
}

// A storeless run computes through a temporary store; it must remove
// that store before exiting, whether the gate passes or fails.
func TestRunWithoutStoreLeavesNoTempStore(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int
	}{{quickBody, 0}, {tamperedBody, 1}} {
		refdata, tmp := writeDir(t, tc.body), t.TempDir()
		out := filepath.Join(t.TempDir(), "RESULTS.md")
		t.Setenv("TMPDIR", tmp)
		if code := runCLI(t, "-refdata", refdata, "-out", out, "-verdicts", "", "-bench", ""); code != tc.want {
			t.Fatalf("exit %d, want %d", code, tc.want)
		}
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("storeless run (exit %d) left %d entries in TMPDIR, first %q", tc.want, len(left), left[0].Name())
		}
	}
}

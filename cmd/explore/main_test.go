package main

import (
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = realMain(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestSweepSchedulers drives a tiny two-point exploration end to end and
// checks the table structure: a header naming the key, a column per sweep
// point, and a row per app.
func TestSweepSchedulers(t *testing.T) {
	code, out, stderr := runCmd(t,
		"-key", "sm.scheduler", "-values", "GTO,LRR",
		"-apps", "BFS", "-scale", "0.1", "-sim", "memory")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"sm.scheduler", "GTO", "LRR", "BFS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The BFS row must carry one cycle count per sweep point.
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "BFS") {
			row = l
		}
	}
	if fields := strings.Fields(row); len(fields) != 3 {
		t.Errorf("BFS row has %d fields, want 3 (app + 2 points): %q", len(fields), row)
	}
}

// TestDeterministicAcrossRuns pins that two identical explorations print
// identical tables (the parallel runner must not reorder output).
func TestDeterministicAcrossRuns(t *testing.T) {
	args := []string{"-key", "l1.ways", "-values", "4,8",
		"-apps", "SM,BFS", "-scale", "0.1", "-sim", "memory"}
	_, out1, _ := runCmd(t, args...)
	code, out2, stderr := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if out1 != out2 {
		t.Errorf("exploration output not deterministic:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
}

// TestListFlagsTolerant: padded elements and trailing commas in -values
// and -apps are cleaned up rather than producing phantom sweep points or
// empty app names.
func TestListFlagsTolerant(t *testing.T) {
	code, out, stderr := runCmd(t,
		"-key", "l1.ways", "-values", " 4 , 8 ,",
		"-apps", " BFS ,", "-scale", "0.1", "-sim", "memory")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "BFS") {
			row = l
		}
	}
	if fields := strings.Fields(row); len(fields) != 3 {
		t.Errorf("BFS row has %d fields, want 3 (app + 2 points): %q", len(fields), row)
	}
}

// TestSampledExploration: -sample runs every sweep point in sampled
// execution mode.
func TestSampledExploration(t *testing.T) {
	code, out, stderr := runCmd(t,
		"-key", "l1.ways", "-values", "4,8",
		"-apps", "BFS", "-scale", "0.1", "-sim", "memory", "-sample", "0.25")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "BFS") {
		t.Errorf("output missing the BFS row:\n%s", out)
	}
}

func TestExitOneOnErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing key", []string{"-values", "1,2"}, "-key and -values are required"},
		{"missing values", []string{"-key", "l1.sets"}, "-key and -values are required"},
		{"bad flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unknown sim", []string{"-key", "l1.sets", "-values", "64", "-sim", "x"}, "unknown simulator"},
		{"bad sweep value", []string{"-key", "l1.sets", "-values", "64,banana", "-apps", "BFS", "-scale", "0.1"}, `sweep point "banana"`},
		{"unknown key", []string{"-key", "no.such.key", "-values", "1", "-apps", "BFS", "-scale", "0.1"}, "unknown configuration key"},
		{"unknown app", []string{"-key", "l1.sets", "-values", "64", "-apps", "NOPE", "-scale", "0.1"}, "NOPE"},
		{"empty values list", []string{"-key", "l1.sets", "-values", ",,"}, "contains no values"},
		{"empty apps list", []string{"-key", "l1.sets", "-values", "64", "-apps", " , "}, "contains no applications"},
		{"sample fraction out of range", []string{"-key", "l1.sets", "-values", "64", "-sample", "1.5"}, "must be in (0,1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1", code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

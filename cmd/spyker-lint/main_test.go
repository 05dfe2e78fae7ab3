package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixture resolves a seeded-violation package under internal/lint/testdata
// to its import path; testdata is invisible to ./... wildcards, so the
// fixtures must be named explicitly.
func fixture(name string) string {
	return "github.com/spyker-fl/spyker/internal/lint/testdata/src/" + name
}

// run invokes the CLI entry point with captured streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFixturesExitNonzero is the acceptance check: every seeded fixture
// must fail the lint, attributed to the right analyzer.
func TestFixturesExitNonzero(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
	}{
		{"determinism", "determinism"},
		{"sendcheck", "sendcheck"},
		{"lockdiscipline", "lockdiscipline"},
		{"goroutinelife", "goroutinelife"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			code, stdout, stderr := run(t, fixture(tc.fixture))
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, "["+tc.analyzer+"]") {
				t.Errorf("findings not attributed to %s:\n%s", tc.analyzer, stdout)
			}
			if !strings.Contains(stderr, "finding(s)") {
				t.Errorf("stderr missing findings summary: %q", stderr)
			}
		})
	}
}

// TestCleanTreeExitsZero runs the exact CI invocation over the real
// module and requires silence.
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	code, stdout, stderr := run(t, "github.com/spyker-fl/spyker/...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean tree produced output:\n%s", stdout)
	}
}

// TestOnlyFilter: an analyzer that does not apply to a fixture must keep
// quiet, and -only must print its analyzer's findings and no other's. The
// determinism fixture has a line lockdiscipline flags as well, so the
// unfiltered run prints both tags and each filtered run must drop one.
func TestOnlyFilter(t *testing.T) {
	if code, stdout, stderr := run(t, "-only", "sendcheck", fixture("determinism")); code != 0 {
		t.Errorf("-only sendcheck on determinism fixture: exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout, stderr)
	}
	if code, stdout, stderr := run(t, "-only", "goroutinelife", fixture("lockdiscipline")); code != 0 {
		t.Errorf("-only goroutinelife on lockdiscipline fixture: exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout, stderr)
	}
	code, stdout, _ := run(t, fixture("determinism"))
	if code != 1 || !strings.Contains(stdout, "[determinism]") || !strings.Contains(stdout, "[lockdiscipline]") {
		t.Fatalf("unfiltered run on the determinism fixture: exit %d, want 1 with both tags:\n%s", code, stdout)
	}
	for _, c := range []struct{ only, other string }{
		{"determinism", "lockdiscipline"},
		{"lockdiscipline", "determinism"},
	} {
		code, stdout, _ := run(t, "-only", c.only, fixture("determinism"))
		if code != 1 || !strings.Contains(stdout, "["+c.only+"]") {
			t.Errorf("-only %s: exit %d, want 1 with its findings:\n%s", c.only, code, stdout)
		}
		if strings.Contains(stdout, "["+c.other+"]") {
			t.Errorf("-only %s leaked %s:\n%s", c.only, c.other, stdout)
		}
	}
}

// TestJSONOutput: -json must emit a machine-readable report whose
// findings carry positions and analyzer attribution.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := run(t, "-json", fixture("sendcheck"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var report struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			Rule     string `json:"rule"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"findings"`
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if report.Count != len(report.Findings) || report.Count < 3 {
		t.Fatalf("count = %d with %d findings, want >= 3 dropped sends", report.Count, len(report.Findings))
	}
	for _, f := range report.Findings {
		if f.Analyzer != "sendcheck" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("malformed finding: %+v", f)
		}
		// The rule sub-field is the stable identifier tooling keys on:
		// always "analyzer/rule", never empty or bare.
		if !strings.HasPrefix(f.Rule, "sendcheck/") {
			t.Errorf("finding rule = %q, want sendcheck/<rule>", f.Rule)
		}
	}
}

// TestJSONCleanTreeShape: a clean run must report an empty findings
// array, not null.
func TestJSONCleanTreeShape(t *testing.T) {
	code, stdout, _ := run(t, "-json", "-only", "sendcheck", fixture("determinism"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(stdout, `"findings": []`) {
		t.Errorf("clean JSON report should carry an empty array:\n%s", stdout)
	}
}

// TestListAnalyzers enumerates the registry: the four analyzers, one a
// line.
func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := run(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	names := []string{"determinism", "sendcheck", "lockdiscipline", "goroutinelife"}
	if lines := strings.Split(strings.TrimSpace(stdout), "\n"); len(lines) != len(names) {
		t.Errorf("-list printed %d lines, want %d:\n%s", len(lines), len(names), stdout)
	}
	for _, name := range names {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing analyzer %s:\n%s", name, stdout)
		}
	}
}

// TestUsageErrors: unknown analyzers, flags, and patterns are usage
// errors (exit 2), distinct from findings (exit 1).
func TestUsageErrors(t *testing.T) {
	if code, _, stderr := run(t, "-only", "nope", fixture("determinism")); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2 (stderr: %s)", code, stderr)
	} else if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr should name the unknown analyzer: %q", stderr)
	}
	if code, _, _ := run(t, "-definitely-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code, _, _ := run(t, "./does/not/exist"); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2", code)
	}
}

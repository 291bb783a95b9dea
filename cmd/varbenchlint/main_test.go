package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoIsClean is the acceptance gate as a test: the full suite over the
// whole module must come back with zero findings (every intentional
// violation carries its reasoned //lint:allow).
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("varbenchlint ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestSeededViolationFails proves the gate can fail: a package with a known
// jsonsafe violation must produce a finding and exit 1.
func TestSeededViolationFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[jsonsafe]") {
		t.Errorf("stdout missing [jsonsafe] finding:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr missing finding count:\n%s", stderr.String())
	}
}

// seededFlowPackages maps each flow-sensitive analyzer to its deliberately
// violating package under testdata.
var seededFlowPackages = []struct{ analyzer, pkg string }{
	{"lockorder", "./testdata/seeded_lockorder"},
	{"goroline", "./testdata/seeded_goroline"},
	{"errsentinel", "./testdata/seeded_errsentinel"},
	{"flushbarrier", "./testdata/seeded_flushbarrier"},
}

// TestSeededFlowViolationsFail proves each flow-sensitive analyzer can fail
// the standalone gate: one seeded violation per analyzer, each demanding
// its finding and exit 1.
func TestSeededFlowViolationsFail(t *testing.T) {
	for _, tc := range seededFlowPackages {
		t.Run(tc.analyzer, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{tc.pkg}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
					code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "["+tc.analyzer+"]") {
				t.Errorf("stdout missing [%s] finding:\n%s", tc.analyzer, stdout.String())
			}
		})
	}
}

// TestGitHubFormat checks the CI annotation format: one ::error workflow
// command per finding, with file, line and column.
func TestGitHubFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "github", "./testdata/seeded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, ",line=") ||
		!strings.Contains(line, "::[jsonsafe]") {
		t.Errorf("not a workflow error command: %q", line)
	}
}

func TestChecksSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// Only nondeterm requested: the seeded jsonsafe violation must pass.
	if code := run([]string{"-checks", "nondeterm", "./testdata/seeded"}, &stdout, &stderr); code != 0 {
		t.Errorf("-checks nondeterm = exit %d, want 0\n%s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-checks", "bogus", "./testdata/seeded"}, &stdout, &stderr); code != 2 {
		t.Errorf("-checks bogus = exit %d, want 2", code)
	} else if !strings.Contains(stderr.String(), `unknown analyzer "bogus"`) {
		t.Errorf("stderr missing unknown-analyzer error:\n%s", stderr.String())
	}
}

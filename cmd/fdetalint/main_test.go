package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI tests run fdetalint in-process. Type-checking the real module
// from source is slow, so only TestRunCleanTree lints it; the output-mode
// tests lint a small scratch module instead (see fixtureModule). The
// module-wide tests skip under -short.

// maxSuppressions is the tree's //lint:ignore budget. It may only go down:
// a change that removes a suppression lowers it to the new count.
const maxSuppressions = 12

func TestRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is slow; run without -short")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on a clean tree\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean tree printed findings:\n%s", stdout.String())
	}
	for _, check := range []string{"determinism", "metricnames", "floatcmp", "goroutines", "wrapcheck",
		"lockhold", "chanbound", "blockctx", "deadapi"} {
		if !strings.Contains(stderr.String(), check) {
			t.Errorf("summary missing analyzer %q:\n%s", check, stderr.String())
		}
	}

	var audit, auditErr strings.Builder
	if code := run([]string{"-suppressions", "-C", "../.."}, &audit, &auditErr); code != 0 {
		t.Fatalf("suppression audit exit %d\n%s", code, auditErr.String())
	}
	if n := strings.Count(audit.String(), "\n"); n > maxSuppressions {
		t.Errorf("the tree has %d //lint:ignore directives, over the budget of %d; "+
			"fix the findings instead:\n%s", n, maxSuppressions, audit.String())
	}
}

// fixtureModule writes a scratch module whose one package, store, is the
// lockhold bad fixture with its first violation suppressed by a reasoned
// directive: it has both unsuppressed and suppressed lockhold findings.
func fixtureModule(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../internal/analysis/testdata/src/lockhold/bad/bad.go")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "store"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module scratch\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixed := strings.ReplaceAll(string(src), "package bad", "package store")
	const first = "\ts.sink(meterID, rs)"
	if !strings.Contains(fixed, first) {
		t.Fatalf("lockhold bad fixture no longer contains %q", first)
	}
	fixed = strings.Replace(fixed, first, "\t//lint:ignore lockhold the fixture's suppressed finding\n"+first, 1)
	if err := os.WriteFile(filepath.Join(root, "store", "store.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRunJSON checks the machine-readable stream: one object per line,
// suppressed findings included and marked with their reason, and
// module-relative paths.
func TestRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("module lint is slow; run without -short")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixtureModule(t), "-json", "-checks", "lockhold"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("-json printed summaries on stderr:\n%s", stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("-json emitted nothing for seeded violations")
	}
	suppressed, open := 0, 0
	for _, line := range lines {
		var f struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Check      string `json:"check"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
			Reason     string `json:"reason"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not a JSON object: %q: %v", line, err)
		}
		if f.File != "store/store.go" || f.Line == 0 || f.Check != "lockhold" || f.Message == "" {
			t.Errorf("object missing fields or not module-relative: %q", line)
		}
		if f.Suppressed {
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding without its reason: %q", line)
			}
		} else {
			open++
		}
	}
	if suppressed != 1 || open == 0 {
		t.Errorf("JSON stream has %d suppressed and %d open findings, want 1 and some", suppressed, open)
	}
}

// TestRunGitHub checks the annotation mode: only unsuppressed findings, in
// workflow-command form.
func TestRunGitHub(t *testing.T) {
	if testing.Short() {
		t.Skip("module lint is slow; run without -short")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixtureModule(t), "-github", "-checks", "lockhold"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("-github emitted no annotations for seeded violations")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=store/store.go,line=") {
			t.Errorf("annotation not in workflow-command form: %q", line)
		}
		if !strings.Contains(line, "title=fdetalint(lockhold)::") {
			t.Errorf("annotation missing check title: %q", line)
		}
		if strings.Contains(strings.SplitN(line, "::", 3)[2], "\n") {
			t.Errorf("unescaped newline in message: %q", line)
		}
	}
}

func TestRunQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("module lint is slow; run without -short")
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", fixtureModule(t), "-q", "-checks", "lockhold"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstderr:\n%s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("-q dropped the findings along with the summaries")
	}
	if stderr.Len() != 0 {
		t.Errorf("-q still printed summaries:\n%s", stderr.String())
	}
}

func TestRunUnknownCheck(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for unknown check, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuchcheck") || !strings.Contains(stderr.String(), "known:") {
		t.Errorf("error does not name the bad check and the known set:\n%s", stderr.String())
	}
}

func TestRunBadDir(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for a directory with no go.mod, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for an unknown flag, want 2", code)
	}
}

func TestRunSuppressionsAudit(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-suppressions", "-C", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("audit listed no directives; the tree has reasoned suppressions")
	}
	for _, line := range lines {
		if !strings.Contains(line, ": [") || !strings.Contains(line, "] ") {
			t.Errorf("audit line not in file:line: [checks] reason form: %q", line)
		}
	}
	if !strings.Contains(stderr.String(), "suppression(s)") {
		t.Errorf("audit summary missing total:\n%s", stderr.String())
	}
}

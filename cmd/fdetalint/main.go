// Command fdetalint is the F-DETA domain linter: it loads the whole module
// with the stdlib go/* toolchain and enforces the reproduction's invariants
// — determinism of the evaluation packages, the fdeta_* metric namespace,
// float-comparison hygiene, goroutine tracking in the AMI/evaluation worker
// pools, typed errors across the ami wire boundary, the concurrency checks
// (lockhold, chanbound, blockctx), and deadapi: no exported identifier in
// internal/ without a non-test user in the module.
//
// Usage:
//
//	fdetalint [-C dir] [-checks list] [-q]   lint the module (exit 1 on findings)
//	fdetalint -json [-C dir]                 machine-readable findings on stdout
//	fdetalint -github [-C dir]               GitHub Actions ::error annotations
//	fdetalint -suppressions [-C dir]         audit every //lint:ignore directive
//
// Findings print as file:line:col: [check] message, followed by a one-line
// per-analyzer summary (packages checked / findings / suppressions) so the
// `make verify` transcript stays scannable. -json emits one object per
// finding — suppressed ones included, marked — for tooling; -github emits
// workflow commands so findings annotate the offending lines on a PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdetalint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory (or any directory beneath it)")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	quiet := fs.Bool("q", false, "suppress the per-analyzer summary lines")
	suppressions := fs.Bool("suppressions", false, "list every //lint:ignore directive instead of linting")
	jsonOut := fs.Bool("json", false, "emit findings as JSON (one object per line), suppressed ones included")
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations for unsuppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *suppressions {
		return runSuppressions(*dir, stdout, stderr)
	}

	analyzers := analysis.Analyzers()
	if *checks != "" {
		selected, err := selectAnalyzers(analyzers, *checks)
		if err != nil {
			fmt.Fprintf(stderr, "fdetalint: %v\n", err)
			return 2
		}
		analyzers = selected
	}

	mod, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "fdetalint: %v\n", err)
		return 2
	}

	exit := 0
	typeErrs := analysis.TypeErrorFindings(mod)
	if len(typeErrs) > 0 {
		exit = 1
	}
	res := analysis.Run(mod, analyzers)
	if res.Unsuppressed() > 0 {
		exit = 1
	}

	emit := printFinding
	switch {
	case *jsonOut:
		emit = jsonFinding
	case *github:
		emit = githubFinding
	}
	for _, f := range typeErrs {
		emit(stdout, mod.Dir, f)
	}
	for _, f := range res.BadDirectives {
		emit(stdout, mod.Dir, f)
	}
	for _, f := range res.Findings {
		if f.Suppressed && !*jsonOut {
			// Only the JSON stream carries suppressed findings: tooling wants
			// the full picture, humans and CI annotations want the failures.
			continue
		}
		emit(stdout, mod.Dir, f)
	}
	if !*quiet && !*jsonOut && !*github {
		for _, s := range res.Summaries {
			fmt.Fprintf(stderr, "fdetalint: %s\n", s)
		}
	}
	return exit
}

// printFinding is the human-readable default: file:line:col: [check] msg.
func printFinding(w io.Writer, root string, f analysis.Finding) {
	fmt.Fprintln(w, relFinding(root, f))
}

// jsonFinding emits one finding as a single-line JSON object.
func jsonFinding(w io.Writer, root string, f analysis.Finding) {
	b, err := json.Marshal(struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Check      string `json:"check"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
		Reason     string `json:"reason,omitempty"`
	}{
		File:       relPath(root, f.Pos.Filename),
		Line:       f.Pos.Line,
		Col:        f.Pos.Column,
		Check:      f.Check,
		Message:    f.Message,
		Suppressed: f.Suppressed,
		Reason:     f.Reason,
	})
	if err != nil {
		// A finding is plain strings and ints; this cannot fail.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// githubFinding emits one workflow command per finding so GitHub Actions
// annotates the offending line. Property values escape %, CR, LF, comma,
// and colon per the workflow-command grammar.
func githubFinding(w io.Writer, root string, f analysis.Finding) {
	fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=fdetalint(%s)::%s\n",
		githubEscape(relPath(root, f.Pos.Filename), true), f.Pos.Line, f.Pos.Column,
		githubEscape(f.Check, true), githubEscape(f.Message, false))
}

// githubEscape encodes a workflow-command value; property values (inside
// the key=value list) additionally escape their delimiters.
func githubEscape(s string, property bool) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	if property {
		r = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ",", "%2C", ":", "%3A")
	}
	return r.Replace(s)
}

// runSuppressions implements the -suppressions audit: every directive with
// file:line and reason, then a total. Parse-only, so it is fast enough to
// run in a pre-commit reflex.
func runSuppressions(dir string, stdout, stderr io.Writer) int {
	mod, err := analysis.ParseModule(dir)
	if err != nil {
		fmt.Fprintf(stderr, "fdetalint: %v\n", err)
		return 2
	}
	directives, malformed := analysis.Suppressions(mod)
	for _, d := range directives {
		rel := relPath(mod.Dir, d.Pos.Filename)
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", rel, d.Pos.Line, strings.Join(d.Checks, ","), d.Reason)
	}
	for _, f := range malformed {
		fmt.Fprintln(stdout, relFinding(mod.Dir, f))
	}
	fmt.Fprintf(stderr, "fdetalint: %d suppression(s), %d malformed directive(s)\n",
		len(directives), len(malformed))
	if len(malformed) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers filters the suite by the -checks flag.
func selectAnalyzers(all []*analysis.Analyzer, list string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	known := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	sort.Strings(known)
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// relFinding renders a finding with a module-relative path.
func relFinding(root string, f analysis.Finding) string {
	f.Pos.Filename = relPath(root, f.Pos.Filename)
	return f.String()
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		name   string
		text   string
		checks []string
		reason string
		ok     bool
		bad    bool // ok && err != nil: a directive, but malformed
	}{
		{name: "not a comment directive", text: "// plain comment", ok: false},
		{name: "other tool namespace", text: "//lint:ignoreXYZ stuff", ok: false},
		{name: "file directive not ours", text: "//lint:file-ignore foo", ok: false},
		{name: "valid", text: "//lint:ignore floatcmp exact sentinel compare",
			checks: []string{"floatcmp"}, reason: "exact sentinel compare", ok: true},
		{name: "multi check", text: "//lint:ignore floatcmp,determinism shared scratch path",
			checks: []string{"floatcmp", "determinism"}, reason: "shared scratch path", ok: true},
		{name: "all wildcard", text: "//lint:ignore all generated compatibility shim",
			checks: []string{"all"}, reason: "generated compatibility shim", ok: true},
		{name: "tab separated", text: "//lint:ignore\tgoroutines\treaped by the conn registry",
			checks: []string{"goroutines"}, reason: "reaped by the conn registry", ok: true},
		{name: "missing reason", text: "//lint:ignore floatcmp", ok: true, bad: true},
		{name: "missing everything", text: "//lint:ignore", ok: true, bad: true},
		{name: "empty check in list", text: "//lint:ignore floatcmp,, double comma", ok: true, bad: true},
		{name: "one word reason", text: "//lint:ignore floatcmp ok", ok: true, bad: true},
		{name: "two word reason", text: "//lint:ignore lockhold known issue", ok: true, bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checks, reason, ok, err := ParseDirective(tc.text)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !tc.ok {
				if err != nil {
					t.Fatalf("non-directive returned error %v", err)
				}
				return
			}
			if tc.bad {
				if err == nil {
					t.Fatalf("malformed directive accepted: checks=%v reason=%q", checks, reason)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if strings.Join(checks, "|") != strings.Join(tc.checks, "|") {
				t.Errorf("checks = %v, want %v", checks, tc.checks)
			}
			if reason != tc.reason {
				t.Errorf("reason = %q, want %q", reason, tc.reason)
			}
		})
	}
}

// parseOne builds a single-file module around src for index tests.
func parseOne(t *testing.T, src string) *Module {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := &Package{Path: "scratch/x", Dir: ".",
		Source: map[string][]byte{"x.go": []byte(src)}}
	p.Files = append(p.Files, f)
	return &Module{Dir: ".", ModPath: "scratch", Fset: fset,
		Pkgs: []*Package{p}}
}

func TestSuppressionTargeting(t *testing.T) {
	src := `package x

func a() {
	//lint:ignore floatcmp standalone covers the next line
	_ = 1
	_ = 2 //lint:ignore goroutines trailing covers its own line
}
`
	mod := parseOne(t, src)
	idx := newSuppressionIndex(mod)
	if len(idx.malformed) != 0 {
		t.Fatalf("malformed: %v", idx.malformed)
	}
	if len(idx.directives) != 2 {
		t.Fatalf("got %d directives, want 2", len(idx.directives))
	}
	if _, ok := idx.match(token.Position{Filename: "x.go", Line: 5}, "floatcmp"); !ok {
		t.Error("standalone directive does not cover the following line")
	}
	if _, ok := idx.match(token.Position{Filename: "x.go", Line: 4}, "floatcmp"); ok {
		t.Error("standalone directive wrongly covers its own line")
	}
	if _, ok := idx.match(token.Position{Filename: "x.go", Line: 6}, "goroutines"); !ok {
		t.Error("trailing directive does not cover its own line")
	}
	if _, ok := idx.match(token.Position{Filename: "x.go", Line: 6}, "floatcmp"); ok {
		t.Error("directive matches a check it does not name")
	}
}

func TestSuppressionMalformedIsFinding(t *testing.T) {
	src := `package x

//lint:ignore floatcmp
func a() {}
`
	mod := parseOne(t, src)
	idx := newSuppressionIndex(mod)
	if len(idx.directives) != 0 {
		t.Fatalf("malformed directive still indexed: %v", idx.directives)
	}
	if len(idx.malformed) != 1 {
		t.Fatalf("got %d malformed findings, want 1", len(idx.malformed))
	}
	f := idx.malformed[0]
	if f.Check != "lint" || f.Pos.Line != 3 {
		t.Errorf("malformed finding misreported: %s", f)
	}
}

func FuzzParseDirective(f *testing.F) {
	f.Add("// plain comment")
	f.Add("//lint:ignore floatcmp exact sentinel compare")
	f.Add("//lint:ignore floatcmp,determinism shared scratch path")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore ,, ")
	f.Add("//lint:ignoreXYZ stuff")
	f.Add("//lint:ignore\t\tall\t\t")
	f.Fuzz(func(t *testing.T, text string) {
		checks, reason, ok, err := ParseDirective(text)
		if !ok {
			if err != nil {
				t.Fatalf("not-a-directive with error: %v", err)
			}
			if checks != nil || reason != "" {
				t.Fatal("non-directive returned content")
			}
			return
		}
		if err == nil {
			// A well-formed directive always has at least one non-empty
			// check and a substantive reason: the format's core guarantee.
			if len(checks) == 0 {
				t.Fatal("well-formed directive with no checks")
			}
			for _, c := range checks {
				if strings.TrimSpace(c) == "" || c != strings.TrimSpace(c) {
					t.Fatalf("unnormalized check %q", c)
				}
			}
			if strings.TrimSpace(reason) == "" || reason != strings.TrimSpace(reason) {
				t.Fatalf("unnormalized reason %q", reason)
			}
			if len(strings.Fields(reason)) < minReasonWords {
				t.Fatalf("accepted reason %q has fewer than %d words", reason, minReasonWords)
			}
		}
	})
}

// suppressionBudget is the number of //lint:ignore directives currently in
// the tree. The audit test pins it so suppressions cannot accumulate
// silently: adding one is a deliberate act that updates this constant (and
// should update DESIGN.md §10 if it establishes a new pattern).
const suppressionBudget = 12

func TestSuppressionBudget(t *testing.T) {
	mod, err := ParseModule(".")
	if err != nil {
		t.Fatalf("ParseModule: %v", err)
	}
	directives, malformed := Suppressions(mod)
	for _, f := range malformed {
		t.Errorf("malformed directive: %s", f)
	}
	if len(directives) != suppressionBudget {
		var list []string
		for _, d := range directives {
			list = append(list, "  "+d.String())
		}
		t.Errorf("module has %d suppression directives, budget is %d; "+
			"if the new suppression is justified, update suppressionBudget:\n%s",
			len(directives), suppressionBudget, strings.Join(list, "\n"))
	}
	for _, d := range directives {
		if len(strings.Fields(d.Reason)) < minReasonWords {
			t.Errorf("%s: reason %q is too thin to justify a suppression", d.Pos, d.Reason)
		}
	}
}

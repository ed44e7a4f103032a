package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The golden tests run each analyzer over seeded-violation fixtures under
// testdata/src/<check>/bad (every finding annotated with a trailing
// `// want "substring"` comment) and their fixed forms under .../good
// (which must produce zero findings). Fixtures are loaded through the same
// loader and Run path as production packages; only the Applies testdata
// escape hatch differs.

// goldenLoader is shared across all fixture loads so GOROOT sources are
// type-checked once per `go test` process, not once per fixture.
var (
	goldenOnce sync.Once
	golden     *loader
	goldenErr  error
)

func goldenLoad(t *testing.T, rel string) (*Module, *Package) {
	t.Helper()
	goldenOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			goldenErr = err
			return
		}
		gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err != nil {
			goldenErr = err
			return
		}
		modPath, err := modulePath(gomod)
		if err != nil {
			goldenErr = err
			return
		}
		golden = newLoader(root, modPath)
	})
	if goldenErr != nil {
		t.Fatalf("locating module: %v", goldenErr)
	}
	path := golden.modPath + "/internal/analysis/testdata/src/" + rel
	pkg, err := golden.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", rel, pkg.TypeErrors)
	}
	mod := &Module{Dir: golden.modDir, ModPath: golden.modPath, Fset: golden.fset,
		Pkgs: []*Package{pkg}}
	// Fixture packages the fixture imports from beneath its own directory
	// belong to its module, so uses across packages count.
	for p, sub := range golden.pkgs {
		if strings.HasPrefix(p, path+"/") {
			mod.Pkgs = append(mod.Pkgs, sub)
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, pkg
}

// analyzerNamed returns a fresh instance of the named analyzer.
func analyzerNamed(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// want is one expected finding, extracted from a `// want "substring"`
// comment: the finding must land on the comment's line and its message
// must contain the substring.
type want struct {
	file string
	line int
	sub  string
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func extractWants(pkg *Package) []want {
	var out []want
	for file, src := range pkg.Source {
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				out = append(out, want{file: file, line: i + 1, sub: m[1]})
			}
		}
	}
	return out
}

func TestGolden(t *testing.T) {
	for _, name := range []string{"determinism", "metricnames", "floatcmp", "goroutines", "wrapcheck",
		"lockhold", "chanbound", "blockctx", "deadapi"} {
		t.Run(name, func(t *testing.T) {
			t.Run("bad", func(t *testing.T) {
				mod, pkg := goldenLoad(t, name+"/bad")
				res := Run(mod, []*Analyzer{analyzerNamed(t, name)})
				wants := extractWants(pkg)
				if len(wants) == 0 {
					t.Fatalf("fixture %s/bad has no // want annotations", name)
				}
				matched := make([]bool, len(wants))
			findings:
				for _, f := range res.Findings {
					for i, w := range wants {
						if !matched[i] && w.file == f.Pos.Filename && w.line == f.Pos.Line &&
							strings.Contains(f.Message, w.sub) {
							matched[i] = true
							continue findings
						}
					}
					t.Errorf("unexpected finding: %s", f)
				}
				for i, w := range wants {
					if !matched[i] {
						t.Errorf("missing finding at %s:%d containing %q",
							filepath.Base(w.file), w.line, w.sub)
					}
				}
			})
			t.Run("good", func(t *testing.T) {
				mod, _ := goldenLoad(t, name+"/good")
				res := Run(mod, []*Analyzer{analyzerNamed(t, name)})
				for _, f := range res.Findings {
					t.Errorf("fixed form still flagged: %s", f)
				}
			})
		})
	}
}

// TestGoldenSuppression rewrites the floatcmp bad fixture's want comments
// into trailing //lint:ignore directives, reparses, and checks that every
// seeded violation line is now covered, with a reason — the suppression
// path of the same golden fixture.
func TestGoldenSuppression(t *testing.T) {
	mod, pkg := goldenLoad(t, "floatcmp/bad")
	wants := extractWants(pkg)
	if len(wants) == 0 {
		t.Fatal("floatcmp/bad has no annotations to suppress")
	}

	fset := token.NewFileSet()
	clone := &Package{Path: pkg.Path, Dir: pkg.Dir, Source: make(map[string][]byte)}
	for file, src := range pkg.Source {
		text := wantRE.ReplaceAllString(string(src),
			`//lint:ignore floatcmp fixture exercises the suppression path`)
		f, err := parser.ParseFile(fset, file, text, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("reparsing rewritten fixture: %v", err)
		}
		clone.Files = append(clone.Files, f)
		clone.Source[file] = []byte(text)
	}

	cmod := &Module{Dir: mod.Dir, ModPath: mod.ModPath, Fset: fset,
		Pkgs: []*Package{clone}}
	idx := newSuppressionIndex(cmod)
	if len(idx.malformed) > 0 {
		t.Fatalf("rewritten directives malformed: %v", idx.malformed[0])
	}
	if len(idx.directives) != len(wants) {
		t.Fatalf("got %d directives, want %d", len(idx.directives), len(wants))
	}
	// The rewrite preserves line structure, so the original want lines are
	// exactly the lines the trailing directives must cover.
	for _, w := range wants {
		reason, ok := idx.match(token.Position{Filename: w.file, Line: w.line}, "floatcmp")
		if !ok {
			t.Errorf("line %d not covered by rewritten directive", w.line)
		} else if reason == "" {
			t.Errorf("line %d suppressed without a reason", w.line)
		}
	}
}

func ExampleFinding() {
	f := Finding{Check: "floatcmp", Message: "floating-point == comparison"}
	f.Pos.Filename = "suite.go"
	f.Pos.Line = 12
	f.Pos.Column = 8
	fmt.Println(f)
	// Output: suite.go:12:8: [floatcmp] floating-point == comparison
}

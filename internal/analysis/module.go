package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked module package. Test files
// (_test.go) are excluded: the analyzers enforce invariants on production
// code, and tests legitimately use literals, wall clocks, and string
// matching on errors.
type Package struct {
	// Path is the import path ("repro/internal/detect").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Source holds each file's raw bytes, keyed by absolute file name (the
	// suppression scanner needs line text to tell trailing directives from
	// standalone ones).
	Source map[string][]byte
	// Types and Info are the go/types results. On type-check failure Types
	// is still non-nil (partial) and TypeErrors records what went wrong.
	Types *types.Package
	Info  *types.Info
	// TypeErrors are the type-checker's complaints, empty on a healthy
	// package. Analyzers are not run on packages with type errors; the
	// driver reports the errors themselves instead.
	TypeErrors []error
}

// Module is a fully loaded Go module: every non-testdata package parsed and
// type-checked against one shared FileSet.
type Module struct {
	// Dir is the absolute module root (the directory holding go.mod).
	Dir string
	// ModPath is the module path from go.mod ("repro").
	ModPath string
	Fset    *token.FileSet
	// Pkgs are the loaded packages sorted by import path.
	Pkgs []*Package

	// summaries is the lazily built call-summary index (Summaries).
	summaries *callSummaries
}

// errNoGoFiles marks a directory with no buildable (non-test) Go files;
// the parse-only module walk skips such directories silently.
var errNoGoFiles = errors.New("no buildable Go files")

// loader type-checks module packages on demand, resolving module-internal
// imports recursively and delegating everything else to the stdlib source
// importer (go/importer "source"), which needs nothing but GOROOT sources —
// keeping the whole driver dependency-free.
type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func newLoader(modDir, modPath string) *loader {
	// The source importer type-checks stdlib packages from GOROOT source
	// through go/build's default context. Force cgo off so packages like
	// net resolve to their pure-Go variants regardless of whether a C
	// toolchain is installed; type information is identical for our
	// purposes.
	build.Default.CgoEnabled = false
	return &loader{
		fset:    token.NewFileSet(),
		modDir:  modDir,
		modPath: modPath,
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer for the checker's import resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("package %s has type errors: %v", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.modDir
	}
	return filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	pkg, err := l.parseDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.typeCheck(pkg)
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory.
func (l *loader) parseDir(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading package dir: %w", err)
	}
	pkg := &Package{Path: path, Dir: dir, Source: make(map[string][]byte)}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		// Honor build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes): a file excluded from the build is excluded from the
		// analysis — type-checking it against the included files would only
		// manufacture false redeclaration errors.
		if match, merr := build.Default.MatchFile(dir, name); merr == nil && !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", errNoGoFiles, dir)
	}
	pkgName := ""
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", full, err)
		}
		if isGeneratedFile(src) {
			continue // machine-written; its style is the generator's problem
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", full, err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: package %s conflicts with %s in the same directory",
				full, f.Name.Name, pkgName)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Source[full] = src
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("%w in %s", errNoGoFiles, dir)
	}
	return pkg, nil
}

// isGeneratedFile implements the Go convention for generated code: a line
// `// Code generated <tool> DO NOT EDIT.` before the package clause.
func isGeneratedFile(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, "package ") {
			return false
		}
		if strings.HasPrefix(line, "// Code generated ") && strings.HasSuffix(line, " DO NOT EDIT.") {
			return true
		}
	}
	return false
}

// typeCheck runs go/types over a parsed package, collecting (not aborting
// on) type errors so the driver can report them with positions.
func (l *loader) typeCheck(pkg *Package) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkg.Path, l.fset, pkg.Files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod.
func modulePath(gomod []byte) (string, error) {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("go.mod declares no module path")
}

// skipDir reports directories the module walk never descends into:
// testdata trees (analyzer fixtures contain seeded violations), VCS and
// tool metadata, and the results archive.
func skipDir(name string) bool {
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	switch name {
	case "testdata", "results", "vendor", "node_modules":
		return true
	}
	return false
}

// LoadModule parses and type-checks every package of the module rooted at
// (or above) dir. Packages that fail to parse abort the load — a module
// that does not parse cannot be meaningfully analyzed — while type errors
// are collected per package and reported by the driver.
func LoadModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(gomod)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)

	var pkgDirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") &&
				!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
				pkgDirs = append(pkgDirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	mod := &Module{Dir: root, ModPath: modPath, Fset: l.fset}
	for _, dir := range pkgDirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			if errors.Is(err, errNoGoFiles) {
				continue // every file excluded by build tags or generated
			}
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}

// ParseModule parses (without type-checking) every package of the module
// rooted at or above dir. It is the fast path for the -suppressions audit,
// which only needs comments.
func ParseModule(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(gomod)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	mod := &Module{Dir: root, ModPath: modPath, Fset: l.fset}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.parseDir(ipath, path)
		if err != nil {
			if errors.Is(err, errNoGoFiles) {
				return nil
			}
			return err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}

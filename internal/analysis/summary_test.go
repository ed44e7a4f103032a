package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// summariesFor loads a one-package scratch module and returns its summary
// index plus a name → summary view of that package's declarations.
func summariesFor(t *testing.T, src string) (*callSummaries, map[string]*FuncSummary) {
	t.Helper()
	root := writeModule(t, map[string]string{
		"go.mod":   "module scratch\n\ngo 1.24\n",
		"p/src.go": src,
	})
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if terrs := TypeErrorFindings(mod); len(terrs) > 0 {
		t.Fatalf("scratch source has type errors: %s", terrs[0])
	}
	cs := mod.Summaries()
	byName := make(map[string]*FuncSummary)
	for _, fs := range cs.ordered {
		byName[fs.Fn.Name()] = fs
	}
	return cs, byName
}

func TestSummaryPropagation(t *testing.T) {
	_, fns := summariesFor(t, `package p

func leaf(ch chan int) { ch <- 1 }

func mid(ch chan int) { leaf(ch) }

func top(ch chan int) { mid(ch) }

func pure(a, b int) int { return a + b }
`)
	for _, name := range []string{"leaf", "mid", "top"} {
		fs := fns[name]
		if fs == nil {
			t.Fatalf("no summary for %s", name)
		}
		if fs.mask&maskOf(opChan) == 0 {
			t.Errorf("%s does not reach the channel send transitively", name)
		}
		if !fs.CanBlockIndefinitely() {
			t.Errorf("%s not marked indefinitely blocking", name)
		}
	}
	if fns["pure"].mask != 0 {
		t.Errorf("pure function has ops %b", fns["pure"].mask)
	}

	// The witness chain explains the whole path, innermost cause last.
	got := fns["top"].Explain(opChan)
	for _, part := range []string{"calls p.mid", "calls p.leaf", "does a channel send"} {
		if !strings.Contains(got, part) {
			t.Errorf("Explain(%q) = %q, missing %q", "top", got, part)
		}
	}
}

func TestSummaryGoroutinesExcluded(t *testing.T) {
	_, fns := summariesFor(t, `package p

// Spawn never blocks: the send happens on the new goroutine.
func Spawn(ch chan int) {
	go func() { ch <- 1 }()
}

// Inline blocks: the literal is invoked on the caller's goroutine.
func Inline(ch chan int) {
	func() { ch <- 1 }()
}
`)
	if fns["Spawn"].mask&maskOf(opChan) != 0 {
		t.Error("goroutine body leaked into the spawner's summary")
	}
	if fns["Inline"].mask&maskOf(opChan) == 0 {
		t.Error("invoked-at-definition literal not folded into the caller")
	}
}

func TestSummaryNonBlockingSelect(t *testing.T) {
	_, fns := summariesFor(t, `package p

// TryPut never parks: the select has a default.
func TryPut(ch chan int, v int) bool {
	select {
	case ch <- v:
		return true
	default:
		return false
	}
}

// Put parks until a receiver arrives.
func Put(ch chan int, v int) {
	select {
	case ch <- v:
	}
}
`)
	if fns["TryPut"].mask&maskOf(opChan) != 0 {
		t.Error("select-with-default counted as a blocking channel op")
	}
	if fns["Put"].mask&maskOf(opChan) == 0 {
		t.Error("defaultless select not counted as a channel op")
	}
}

func TestSummaryCallbackAndStdlib(t *testing.T) {
	_, fns := summariesFor(t, `package p

import (
	"os"
	"time"
)

func Hook(f func() error) error { return f() }

func Nap() { time.Sleep(time.Millisecond) }

func Persist(f *os.File, b []byte) error {
	_, err := f.Write(b)
	return err
}

// Convert only converts and calls builtins: no ops.
func Convert(v int) string { return string(rune(v)) }
`)
	if fns["Hook"].mask&maskOf(opCallback) == 0 {
		t.Error("func-typed parameter invocation not classified as a callback")
	}
	if fns["Hook"].CanBlockIndefinitely() {
		t.Error("a callback alone must not count as indefinite blocking")
	}
	if fns["Nap"].mask&maskOf(opSleep) == 0 || !fns["Nap"].CanBlockIndefinitely() {
		t.Error("time.Sleep not classified as an indefinitely blocking sleep")
	}
	if fns["Persist"].mask&maskOf(opFileIO) == 0 {
		t.Error("os.File.Write not classified as file IO")
	}
	if fns["Persist"].CanBlockIndefinitely() {
		t.Error("file IO wrongly counted as indefinite blocking")
	}
	if fns["Convert"].mask != 0 {
		t.Errorf("conversions/builtins produced ops %b", fns["Convert"].mask)
	}

	// firstKind picks the lowest-numbered kind within the filter.
	if k, ok := fns["Persist"].firstKind(lockholdBanned); !ok || k != opFileIO {
		t.Errorf("firstKind = %v,%v, want opFileIO,true", k, ok)
	}
	if _, ok := fns["Persist"].firstKind(indefiniteBlocking); ok {
		t.Error("file IO matched the indefinite-blocking filter")
	}
}

func TestSummaryLookupMissesForeign(t *testing.T) {
	cs, fns := summariesFor(t, `package p

import "strings"

func Use(s string) string { return strings.ToUpper(s) }
`)
	if fns["Use"].mask != 0 {
		t.Errorf("strings.ToUpper produced ops %b", fns["Use"].mask)
	}
	// Stdlib functions have no summaries: Lookup must return nil, not a
	// zero-value entry.
	for _, pkg := range cs.mod.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "strings" {
				if cs.Lookup(fn) != nil {
					t.Fatalf("Lookup(%s) returned a summary for a foreign function", fn.Name())
				}
			}
		}
	}
}

func TestOpMaskConstants(t *testing.T) {
	// lockhold bans everything except listener binds.
	for k := opKind(0); k < numOpKinds; k++ {
		want := k != opNetBind
		if lockholdBanned.has(k) != want {
			t.Errorf("lockholdBanned.has(%v) = %v, want %v", k, !want, want)
		}
	}
	// blockctx triggers only on waits with no bound the function controls.
	wantIndef := map[opKind]bool{opChan: true, opNetIO: true, opSleep: true, opWait: true}
	for k := opKind(0); k < numOpKinds; k++ {
		if indefiniteBlocking.has(k) != wantIndef[k] {
			t.Errorf("indefiniteBlocking.has(%v) = %v, want %v", k, !wantIndef[k], wantIndef[k])
		}
	}
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call-summary engine: a dependency-free (stdlib go/types + AST)
// interprocedural layer shared by the concurrency analyzers. It indexes
// every function declaration in the module, computes a local summary per
// function — which concurrency-relevant operations its body performs
// (channel ops, net/file IO, sleeps, waits, caller-supplied callback
// invocations) — and propagates those facts transitively over the static
// call graph, keeping a witness chain so diagnostics can explain *why* a
// callee is considered blocking.
//
// Known, deliberate approximations (each keeps the false-positive rate
// bounded at module scale):
//   - calls through module-defined interfaces are unresolved (no body, no
//     ops); only a curated set of stdlib interface methods (io.Reader/
//     io.Writer, net.Conn, net.Listener) is classified directly,
//   - `go` statements never block their caller, so goroutine bodies are
//     excluded from the spawning function's summary (each function literal
//     is still summarized and lock-checked on its own),
//   - function literals contribute to the enclosing summary only when
//     invoked at their definition site (direct call or defer); literals
//     that escape through variables or fields are summarized separately,
//   - mutex Lock/Unlock acquisition is not itself a blocking op — flagging
//     it would ban all nested locking; lockhold tracks it as lock state
//     instead.

// opKind classifies one concurrency-relevant operation a function can
// reach, directly or through callees.
type opKind uint8

const (
	// opChan is a potentially-blocking channel operation: send, receive,
	// range over a channel, or a select without a default clause.
	opChan opKind = iota
	// opNetIO is network IO that can block for as long as the peer
	// pleases: dial, accept, conn read/write.
	opNetIO
	// opNetBind is listener setup (net.Listen): a pair of quick syscalls,
	// separated from opNetIO so binding a socket does not make every
	// constructor a "blocking entry point".
	opNetBind
	// opFileIO is filesystem IO: reads, writes, syncs, renames. Bounded by
	// the disk, not a peer — excluded from the indefinite-blocking set but
	// still banned while a mutex is held.
	opFileIO
	// opStreamIO is IO through generic stream abstractions (io.Reader/
	// io.Writer methods, bufio, encoding/json encoders): the underlying
	// device is unknown, so it is treated like file IO.
	opStreamIO
	// opSleep is time.Sleep.
	opSleep
	// opWait is sync.WaitGroup.Wait or sync.Cond.Wait.
	opWait
	// opCallback is an invocation of a caller-supplied function value — a
	// func-typed parameter, field, or variable. The callee is unknown, so
	// under a lock it is the most dangerous shape of all.
	opCallback
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opChan:
		return "channel op"
	case opNetIO:
		return "network IO"
	case opNetBind:
		return "listener bind"
	case opFileIO:
		return "file IO"
	case opStreamIO:
		return "stream IO"
	case opSleep:
		return "sleep"
	case opWait:
		return "wait"
	case opCallback:
		return "callback invocation"
	default:
		return "unknown op"
	}
}

// opMask is a bit set of opKinds.
type opMask uint16

func maskOf(k opKind) opMask         { return 1 << k }
func (m opMask) has(k opKind) bool   { return m&maskOf(k) != 0 }
func (m opMask) any(o opMask) opMask { return m & o }

// lockholdBanned are the kinds forbidden while a mutex is held: anything
// that can stall every contender of the lock, plus callback invocations
// (whose behavior the lock holder cannot know).
const lockholdBanned = opMask(1<<numOpKinds-1) &^ (1 << opNetBind)

// indefiniteBlocking are the kinds that can block with no bound the
// function itself controls — the blockctx trigger set. File/stream IO is
// excluded (bounded by the device), as is listener binding.
const indefiniteBlocking opMask = 1<<opChan | 1<<opNetIO | 1<<opSleep | 1<<opWait

// opCause records the first witness for one opKind in one function:
// either a local operation (callee nil) or a call into a summarized
// function that transitively reaches the op.
type opCause struct {
	pos    token.Pos
	what   string       // "channel send", "calls (*shardWAL).Append", ...
	callee *FuncSummary // non-nil when reached through a module call
}

// callSite is one static call to a module-internal function.
type callSite struct {
	pos token.Pos
	fn  *types.Func
}

// FuncSummary is the per-function fact sheet the analyzers consume. Ops
// and causes are transitive after buildSummaries returns.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declarations
	Pkg  *Package

	mask   opMask
	causes [numOpKinds]opCause
	calls  []callSite
}

// CanBlockIndefinitely reports whether the function can block with no
// bound it controls: channel ops, network IO, sleeps, waits.
func (s *FuncSummary) CanBlockIndefinitely() bool { return s.mask&indefiniteBlocking != 0 }

// firstKind returns the lowest-numbered kind present in both the summary
// and the filter — the deterministic representative for diagnostics.
func (s *FuncSummary) firstKind(filter opMask) (opKind, bool) {
	for k := opKind(0); k < numOpKinds; k++ {
		if s.mask.has(k) && filter.has(k) {
			return k, true
		}
	}
	return 0, false
}

// Explain renders the witness chain for kind k: how this function reaches
// the operation, through up to maxHops callees.
func (s *FuncSummary) Explain(k opKind) string {
	const maxHops = 8
	var parts []string
	cur := s
	for hop := 0; cur != nil && hop < maxHops; hop++ {
		c := cur.causes[k]
		parts = append(parts, c.what)
		if c.callee == nil {
			break
		}
		cur = c.callee
	}
	return strings.Join(parts, ", which ")
}

// callSummaries holds the module-wide function index. Build once per
// module via Module.Summaries.
type callSummaries struct {
	mod     *Module
	byFunc  map[*types.Func]*FuncSummary
	ordered []*FuncSummary // deterministic iteration order (source position)
}

// Summaries returns the module's call-summary index, building it on first
// use. Run executes analyzers sequentially, so no locking is needed.
func (m *Module) Summaries() *callSummaries {
	if m.summaries == nil {
		m.summaries = buildSummaries(m)
	}
	return m.summaries
}

// Lookup resolves a callee to its summary, or nil for functions without a
// body in the module (stdlib, interface methods).
func (cs *callSummaries) Lookup(fn *types.Func) *FuncSummary { return cs.byFunc[fn] }

// buildSummaries indexes every function declaration and literal, computes
// local summaries, then propagates ops over the call graph to a fixpoint.
func buildSummaries(mod *Module) *callSummaries {
	cs := &callSummaries{mod: mod, byFunc: make(map[*types.Func]*FuncSummary)}
	for _, pkg := range mod.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				fs := &FuncSummary{Fn: fn, Decl: fd, Pkg: pkg}
				cs.byFunc[fn] = fs
				cs.ordered = append(cs.ordered, fs)
			}
		}
	}
	sort.Slice(cs.ordered, func(i, j int) bool {
		return cs.ordered[i].bodyPos() < cs.ordered[j].bodyPos()
	})
	for _, fs := range cs.ordered {
		scanBody(fs.Pkg, fs.Decl.Body, fs)
	}
	cs.propagate()
	return cs
}

func (s *FuncSummary) bodyPos() token.Pos {
	if s.Decl != nil {
		return s.Decl.Pos()
	}
	return s.Lit.Pos()
}

// addOp records a local operation (first witness per kind wins).
func (s *FuncSummary) addOp(k opKind, pos token.Pos, what string) {
	if s.mask.has(k) {
		return
	}
	s.mask |= maskOf(k)
	s.causes[k] = opCause{pos: pos, what: what}
}

// scanBody computes one function's local summary: its direct ops, its
// static module-internal call sites, and its dynamic (callback) calls.
// Function literals are descended into only when invoked at their
// definition site; `go` bodies are skipped entirely.
func scanBody(pkg *Package, body *ast.BlockStmt, fs *FuncSummary) {
	info := pkg.Info
	// Pre-pass: select statements with a default clause are non-blocking;
	// their comm clauses' send/recv headers must not count as channel ops.
	nonBlockingComm := make(map[ast.Node]bool)
	// Literals invoked where they are defined run on the caller's
	// goroutine: their ops belong to this summary.
	invokedLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						nonBlockingComm[cc.Comm] = true
					}
				}
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				invokedLits[lit] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // runs concurrently; never blocks the caller
		case *ast.FuncLit:
			return invokedLits[n]
		case *ast.SendStmt:
			if !nonBlockingComm[n] {
				fs.addOp(opChan, n.Arrow, "does a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !isNonBlockingRecv(n, nonBlockingComm) {
				fs.addOp(opChan, n.OpPos, "does a channel receive")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				fs.addOp(opChan, n.Select, "blocks in a select with no default")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fs.addOp(opChan, n.For, "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			classifyCall(pkg, n, fs)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isNonBlockingRecv reports whether recv is the comm operation (or its
// assignment wrapper's RHS) of a select clause guarded by a default.
func isNonBlockingRecv(recv *ast.UnaryExpr, nonBlocking map[ast.Node]bool) bool {
	for comm := range nonBlocking {
		switch c := comm.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(c.X) == recv {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range c.Rhs {
				if ast.Unparen(rhs) == recv {
					return true
				}
			}
		}
	}
	return false
}

// classifyCall folds one call expression into the summary: a curated
// stdlib op, a module-internal call site, or a dynamic callback.
func classifyCall(pkg *Package, call *ast.CallExpr, fs *FuncSummary) {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)
	if _, ok := fun.(*ast.FuncLit); ok {
		return // invoked literal: its body is scanned inline
	}
	if fn := calleeOf(info, call); fn != nil {
		if k, what, ok := classifyStdlibCall(fn); ok {
			fs.addOp(k, call.Lparen, what)
			return
		}
		if fn.Pkg() != nil && isModulePath(fs.Pkg, fn.Pkg().Path()) {
			fs.calls = append(fs.calls, callSite{pos: call.Lparen, fn: fn})
		}
		return
	}
	// Not a *types.Func: a builtin, a conversion, or a func value.
	switch obj := calleeObject(info, fun).(type) {
	case *types.Builtin, *types.TypeName, *types.Nil:
		return
	case nil:
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return
		}
	default:
		_ = obj
	}
	if t := info.TypeOf(fun); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			fs.addOp(opCallback, call.Lparen,
				fmt.Sprintf("invokes the caller-supplied func %s", types.ExprString(fun)))
		}
	}
}

// calleeObject resolves the object a call's Fun expression names, if any.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch e := fun.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// isModulePath reports whether path belongs to the same module as pkg —
// including fixture pseudo-packages under testdata.
func isModulePath(pkg *Package, path string) bool {
	i := strings.Index(pkg.Path, "/")
	root := pkg.Path
	if i >= 0 {
		root = pkg.Path[:i]
	}
	return path == root || strings.HasPrefix(path, root+"/")
}

// classifyStdlibCall maps a resolved callee to an opKind when it is one of
// the curated concurrency-relevant stdlib operations. The set is
// deliberately small and explicit: every entry is an operation whose cost
// is owned by a device or a peer, not the CPU.
func classifyStdlibCall(fn *types.Func) (opKind, string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, "", false
	}
	name := fn.Name()
	display := funcDisplayName(fn)
	switch pkg.Path() {
	case "time":
		if name == "Sleep" && fn.Type().(*types.Signature).Recv() == nil {
			return opSleep, "calls time.Sleep", true
		}
	case "sync":
		if name == "Wait" && (isMethodOn(fn, "sync", "WaitGroup", "Wait") ||
			isMethodOn(fn, "sync", "Cond", "Wait")) {
			return opWait, "calls " + display, true
		}
	case "os":
		if isRecvMethod(fn) {
			switch name {
			case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString",
				"WriteTo", "Sync", "Seek", "Truncate":
				return opFileIO, "calls " + display, true
			}
			return 0, "", false
		}
		switch name {
		case "ReadFile", "WriteFile", "ReadDir", "Open", "OpenFile", "Create",
			"CreateTemp", "Rename", "Remove", "RemoveAll", "MkdirAll", "Truncate":
			return opFileIO, "calls os." + name, true
		}
	case "net":
		if isRecvMethod(fn) {
			switch name {
			case "Read", "Write", "ReadFrom", "WriteTo", "Accept", "AcceptTCP",
				"Dial", "DialContext":
				return opNetIO, "calls " + display, true
			}
			return 0, "", false
		}
		switch name {
		case "Dial", "DialTimeout":
			return opNetIO, "calls net." + name, true
		case "Listen", "ListenTCP", "ListenPacket":
			return opNetBind, "calls net." + name, true
		}
	case "io":
		if isRecvMethod(fn) {
			// io.Reader.Read / io.Writer.Write etc. through the interface.
			switch name {
			case "Read", "Write", "ReadFrom", "WriteTo", "ReadByte", "WriteByte":
				return opStreamIO, "calls " + display, true
			}
			return 0, "", false
		}
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
			return opStreamIO, "calls io." + name, true
		}
	case "bufio":
		if isRecvMethod(fn) {
			switch name {
			case "Read", "ReadByte", "ReadBytes", "ReadRune", "ReadSlice",
				"ReadString", "ReadLine", "Peek", "Discard", "Fill",
				"Write", "WriteByte", "WriteRune", "WriteString", "WriteTo",
				"ReadFrom", "Flush", "Scan":
				return opStreamIO, "calls " + display, true
			}
		}
	case "encoding/json":
		if isMethodOn(fn, "encoding/json", "Encoder", "Encode") ||
			isMethodOn(fn, "encoding/json", "Decoder", "Decode") {
			return opStreamIO, "calls " + display, true
		}
	}
	return 0, "", false
}

// isRecvMethod reports whether fn has a receiver (concrete or interface).
func isRecvMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// funcDisplayName renders fn compactly for diagnostics: "(*shardWAL).Append"
// for methods, "ami.NewSharded" for package functions.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		name := "?"
		switch tt := t.(type) {
		case *types.Named:
			name = tt.Obj().Name()
		case *types.Interface:
			name = "interface"
		}
		return fmt.Sprintf("(%s%s).%s", ptr, name, fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// propagate closes the summaries over the call graph: a caller inherits
// every op kind any callee can reach. Plain fixpoint iteration — the
// module has a few thousand functions and at most numOpKinds rounds of
// change per function, so this converges in a handful of passes.
func (cs *callSummaries) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fs := range cs.ordered {
			for _, site := range fs.calls {
				callee := cs.byFunc[site.fn]
				if callee == nil {
					continue
				}
				for k := opKind(0); k < numOpKinds; k++ {
					if callee.mask.has(k) && !fs.mask.has(k) {
						fs.mask |= maskOf(k)
						fs.causes[k] = opCause{
							pos:    site.pos,
							what:   "calls " + funcDisplayName(site.fn),
							callee: callee,
						}
						changed = true
					}
				}
			}
		}
	}
}

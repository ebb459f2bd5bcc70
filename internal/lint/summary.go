package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the interprocedural engine: an intra-module call graph
// plus per-function summaries that let the analyzers see through one
// to two levels of helpers and method wrappers. The graph is built
// from the type-checked packages the loader already produces — edges
// resolve through types.Info.Uses, so method wrappers, cross-package
// helpers, and shadowed names all land on the right *types.Func.
//
// Summaries are deliberately coarse facts, not a dataflow lattice:
//
//   - Blocking: the function (transitively) performs delivery I/O —
//     the same operations deliveryCall recognizes intraprocedurally.
//   - LocksAtExit / UnlocksAtEntry: net mutex effects visible to a
//     caller, keyed by a normalized root (receiver, parameter, or
//     package-level variable) plus field path, so "s.lockAll()" can
//     be translated to "s.mu" at each call site.
//   - ReturnsPooled: the (single) result is a pointer obtained from a
//     sync.Pool Get inside — the caller owns a pooled value without a
//     Get in sight.
//   - ParamEscapes: argument i is stored in a field, global, map or
//     slice element, sent on a channel, returned, or handed to
//     another function that does any of those.
//   - FreshCtxResults: result i is a context.Context rooted at a
//     context.Background()/TODO() minted inside the function (possibly
//     wrapped in WithCancel/WithTimeout/...), severing any caller's
//     cancellation chain.
//   - UnexitableLoop: the body contains a `for { ... }` with no
//     return, break, goto, or panic path out — the goroutinelife shape.
//
// All facts are monotone (set once, never cleared), and propagation
// runs a bounded number of rounds, so recursion and mutual cycles
// terminate with whatever was proven before the fixed point was cut
// off. summaryRounds = 4 guarantees at least three levels of helper
// transparency, one more than the analyzers promise.
const summaryRounds = 4

// A Summary is the caller-visible behavior of one declared function.
type Summary struct {
	Func *types.Func

	// Blocking describes the delivery I/O this function performs,
	// directly or through callees ("retry.Do", "(*Sink).push → http.Client.Do").
	// Empty when the function is delivery-free.
	Blocking string

	// LocksAtExit holds normalized mutex keys acquired and still held
	// when the function returns (a lock helper). UnlocksAtEntry holds
	// keys released without a prior acquire (an unlock helper).
	LocksAtExit    map[string]bool
	UnlocksAtEntry map[string]bool

	// ReturnsPooled reports that the function's single result is a
	// pool-derived pointer.
	ReturnsPooled bool

	// ParamEscapes[i] reports that parameter i escapes the callee's
	// frame; ParamEscapeHow[i] says how, for diagnostics.
	ParamEscapes   []bool
	ParamEscapeHow []string

	// FreshCtxResults[i] reports that result i is a context rooted at
	// a Background/TODO minted inside the function.
	FreshCtxResults []bool

	// UnexitableLoop reports a `for` with no condition and no exit
	// path.
	UnexitableLoop bool
}

// A Program is the unit of interprocedural analysis: every package of
// one load, indexed for call resolution, with summaries computed to a
// bounded fixed point.
type Program struct {
	decls map[*types.Func]*declSite
	sums  map[*types.Func]*Summary
	// byKey maps a canonical "pkgpath:(*T).M" spelling to the
	// source-checked declaration. A caller package sees its imports
	// through export data, so the *types.Func it resolves at a call
	// site is a different object than the one indexed from the callee
	// package's own source; the canonical key bridges the two.
	byKey map[string]*types.Func
}

type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// NewProgram indexes pkgs and computes function summaries.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		decls: map[*types.Func]*declSite{},
		sums:  map[*types.Func]*Summary{},
		byKey: map[string]*types.Func{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.decls[fn] = &declSite{pkg: pkg, decl: fd}
				p.sums[fn] = &Summary{Func: fn}
				if key := funcKey(fn); key != "" {
					p.byKey[key] = fn
				}
			}
		}
	}
	for round := 0; round < summaryRounds; round++ {
		changed := false
		for fn, site := range p.decls {
			if p.updateSummary(fn, site) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return p
}

// Summary returns fn's summary, or nil when fn is not declared in the
// analyzed packages (stdlib, export-data-only dependencies).
func (p *Program) Summary(fn *types.Func) *Summary {
	if p == nil || fn == nil {
		return nil
	}
	return p.sums[p.canonical(fn)]
}

// canonical maps fn to the source-checked declaration object when fn
// came in through export data.
func (p *Program) canonical(fn *types.Func) *types.Func {
	fn = fn.Origin()
	if _, ok := p.sums[fn]; ok {
		return fn
	}
	if src := p.byKey[funcKey(fn)]; src != nil {
		return src
	}
	return fn
}

// funcKey spells fn canonically: "pkgpath:Fn" or "pkgpath:(*T).M".
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
			star = "*"
		}
		n, isNamed := t.(*types.Named)
		if !isNamed {
			return "" // interface or weird receiver: no stable key
		}
		recv = "(" + star + n.Obj().Name() + ")."
	}
	return pkg.Path() + ":" + recv + fn.Name()
}

// calleeSummary resolves call to a summarized module function.
func (p *Program) calleeSummary(info *types.Info, call *ast.CallExpr) *Summary {
	if p == nil {
		return nil
	}
	return p.Summary(callee(info, call))
}

// funcDisplayName renders fn for diagnostics: "pkg.Fn" or "(*pkg.T).M".
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		named := recv
		prefix := ""
		if ptr, isPtr := recv.(*types.Pointer); isPtr {
			named = ptr.Elem()
			prefix = "*"
		}
		if n, isNamed := named.(*types.Named); isNamed {
			tn := n.Obj().Name()
			if pkg := n.Obj().Pkg(); pkg != nil {
				tn = pkg.Name() + "." + tn
			}
			if prefix != "" {
				return "(" + prefix + tn + ")." + fn.Name()
			}
			return tn + "." + fn.Name()
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + fn.Name()
	}
	return fn.Name()
}

// updateSummary recomputes fn's facts from its body, consulting the
// current round's summaries for callees. Returns whether anything new
// was proven (facts only ever turn on).
func (p *Program) updateSummary(fn *types.Func, site *declSite) bool {
	sum := p.sums[fn]
	changed := false
	info := site.pkg.Info
	body := site.decl.Body

	if sum.Blocking == "" {
		if b := p.findBlocking(info, body); b != "" {
			sum.Blocking = b
			changed = true
		}
	}
	if !sum.ReturnsPooled && p.findReturnsPooled(info, site.decl) {
		sum.ReturnsPooled = true
		changed = true
	}
	if p.updateParamEscapes(info, site.decl, sum) {
		changed = true
	}
	if p.updateFreshCtx(info, site.decl, sum) {
		changed = true
	}
	if !sum.UnexitableLoop && hasUnexitableLoop(body) {
		sum.UnexitableLoop = true
		changed = true
	}
	if p.updateLockEffects(info, site.decl, sum) {
		changed = true
	}
	return changed
}

// ---- blocking I/O ----

// findBlocking scans body (function literals excluded: a goroutine's
// delivery does not block the spawner) for a delivery operation, direct
// or through a summarized callee.
func (p *Program) findBlocking(info *types.Info, body *ast.BlockStmt) string {
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if what := deliveryCall(info, call); what != "" {
			found = what
			return false
		}
		if cs := p.calleeSummary(info, call); cs != nil && cs.Blocking != "" {
			found = funcDisplayName(cs.Func) + " → " + cs.Blocking
			return false
		}
		return true
	})
	return found
}

// ---- pooled returns ----

// findReturnsPooled reports whether decl's single result is a value
// obtained from a sync.Pool Get (directly, via a local, or via a
// callee whose summary says so).
func (p *Program) findReturnsPooled(info *types.Info, decl *ast.FuncDecl) bool {
	sig, ok := info.Defs[decl.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	// Locals bound to a pooled value anywhere in the body.
	pooledVars := map[types.Object]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if p.isPoolDerived(info, as.Rhs[0]) {
			if obj := objectOf(info, id); obj != nil {
				pooledVars[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		res := ast.Unparen(ret.Results[0])
		if p.isPoolDerived(info, res) {
			found = true
			return false
		}
		if id, ok := res.(*ast.Ident); ok && pooledVars[objectOf(info, id)] {
			found = true
			return false
		}
		return true
	})
	return found
}

// isPoolDerived reports whether expr yields a pooled value: a pool Get
// (possibly type-asserted) or a call to a ReturnsPooled function.
func (p *Program) isPoolDerived(info *types.Info, expr ast.Expr) bool {
	if isPoolGet(info, expr) {
		return true
	}
	e := ast.Unparen(expr)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	cs := p.calleeSummary(info, call)
	return cs != nil && cs.ReturnsPooled
}

// ---- parameter escapes ----

func (p *Program) updateParamEscapes(info *types.Info, decl *ast.FuncDecl, sum *Summary) bool {
	sig, ok := info.Defs[decl.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	n := sig.Params().Len()
	if sum.ParamEscapes == nil {
		sum.ParamEscapes = make([]bool, n)
		sum.ParamEscapeHow = make([]string, n)
	}
	changed := false
	for i := 0; i < n; i++ {
		if sum.ParamEscapes[i] {
			continue
		}
		obj := sig.Params().At(i)
		if how := p.paramEscapeIn(info, decl.Body, obj); how != "" {
			sum.ParamEscapes[i] = true
			sum.ParamEscapeHow[i] = how
			changed = true
		}
	}
	return changed
}

// paramEscapeIn reports how obj escapes body, or "".
func (p *Program) paramEscapeIn(info *types.Info, body *ast.BlockStmt, obj types.Object) string {
	var how string
	ast.Inspect(body, func(n ast.Node) bool {
		if how != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if leaksDirectly(info, res, obj) {
					how = "returned to the caller"
				}
			}
		case *ast.SendStmt:
			if leaksDirectly(info, v.Value, obj) {
				how = "sent on a channel"
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				var rhs ast.Expr
				if len(v.Rhs) == len(v.Lhs) {
					rhs = v.Rhs[i]
				} else if len(v.Rhs) == 1 {
					rhs = v.Rhs[0]
				}
				if rhs == nil || !leaksDirectly(info, rhs, obj) {
					continue
				}
				if exprMentions(info, lhs, obj) {
					continue // self-store: mutating the value's own state
				}
				if sink := storeSink(info, lhs); sink != "" {
					how = "stored in " + sink
				}
			}
		case *ast.CallExpr:
			cs := p.calleeSummary(info, v)
			if cs == nil {
				return true
			}
			for i, arg := range v.Args {
				if i >= len(cs.ParamEscapes) || !cs.ParamEscapes[i] {
					continue
				}
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
					how = fmt.Sprintf("passed to %s, where it is %s", funcDisplayName(cs.Func), cs.ParamEscapeHow[i])
				}
			}
		}
		return true
	})
	return how
}

// ---- fresh contexts ----

func (p *Program) updateFreshCtx(info *types.Info, decl *ast.FuncDecl, sum *Summary) bool {
	sig, ok := info.Defs[decl.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	n := sig.Results().Len()
	if n == 0 {
		return false
	}
	hasCtxResult := false
	for i := 0; i < n; i++ {
		if isContextType(sig.Results().At(i).Type()) {
			hasCtxResult = true
		}
	}
	if !hasCtxResult {
		return false
	}
	if sum.FreshCtxResults == nil {
		sum.FreshCtxResults = make([]bool, n)
	}
	fresh := p.freshCtxVars(info, decl.Body)
	changed := false
	ast.Inspect(decl.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 1 && n > 1 {
			// return f() forwarding a tuple: map the callee's fresh results.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for i, isFresh := range p.freshCtxCallResults(info, fresh, call, n) {
					if isFresh && !sum.FreshCtxResults[i] {
						sum.FreshCtxResults[i] = true
						changed = true
					}
				}
			}
			return true
		}
		for i, res := range ret.Results {
			if i < n && p.isFreshCtxExpr(info, fresh, res) && !sum.FreshCtxResults[i] {
				sum.FreshCtxResults[i] = true
				changed = true
			}
		}
		return true
	})
	return changed
}

// freshCtxVars collects local variables bound to a fresh context
// anywhere in body (flow-insensitive; params are never fresh).
func (p *Program) freshCtxVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	// Two passes so `a := Background(); b := WithValue(a, ...)` resolves.
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					for i, isFresh := range p.freshCtxCallResults(info, fresh, call, len(as.Lhs)) {
						if isFresh && i < len(as.Lhs) {
							if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
								if obj := objectOf(info, id); obj != nil {
									fresh[obj] = true
								}
							}
						}
					}
				}
				return true
			}
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if p.isFreshCtxExpr(info, fresh, as.Rhs[i]) {
					if obj := objectOf(info, id); obj != nil {
						fresh[obj] = true
					}
				}
			}
			return true
		})
	}
	return fresh
}

// freshCtxCallResults maps which of call's n results are fresh contexts.
func (p *Program) freshCtxCallResults(info *types.Info, fresh map[types.Object]bool, call *ast.CallExpr, n int) []bool {
	out := make([]bool, n)
	if isCtxConstructor(info, call) && len(call.Args) > 0 && p.isFreshCtxExpr(info, fresh, call.Args[0]) {
		out[0] = true // ctx is always the first result of context.WithX
		return out
	}
	if cs := p.calleeSummary(info, call); cs != nil {
		for i := 0; i < n && i < len(cs.FreshCtxResults); i++ {
			out[i] = cs.FreshCtxResults[i]
		}
	}
	return out
}

// isFreshCtxExpr reports whether expr evaluates to a context rooted at
// a Background/TODO minted in this function.
func (p *Program) isFreshCtxExpr(info *types.Info, fresh map[types.Object]bool, expr ast.Expr) bool {
	e := ast.Unparen(expr)
	switch v := e.(type) {
	case *ast.Ident:
		return fresh[objectOf(info, v)]
	case *ast.CallExpr:
		if backgroundOrTODO(info, v) != "" {
			return true
		}
		if isCtxConstructor(info, v) && len(v.Args) > 0 {
			return p.isFreshCtxExpr(info, fresh, v.Args[0])
		}
		if cs := p.calleeSummary(info, v); cs != nil && len(cs.FreshCtxResults) > 0 {
			return cs.FreshCtxResults[0]
		}
	}
	return false
}

// isCtxConstructor recognizes context.WithCancel/WithTimeout/
// WithDeadline/WithValue/WithCancelCause — wrappers that preserve the
// root of their parent.
func isCtxConstructor(info *types.Info, call *ast.CallExpr) bool {
	for _, name := range [...]string{"WithCancel", "WithTimeout", "WithDeadline", "WithValue", "WithCancelCause", "WithoutCancel"} {
		if calleeIsFunc(info, call, "context", name) {
			return true
		}
	}
	return false
}

// ---- goroutine lifecycle ----

// hasUnexitableLoop reports whether body contains a `for { ... }`
// (no condition, not a range) offering no way out: no return, no
// break of that loop, no goto, no panic/os.Exit/log.Fatal.
func hasUnexitableLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !loopHasExit(loop) {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopHasExit reports whether loop's body can leave the loop: a return
// anywhere inside (closures excluded), a break binding to this loop, a
// goto, or a call that never returns.
func loopHasExit(loop *ast.ForStmt) bool {
	exit := false
	// breakDepth tracks intervening for/range/switch/select nodes that
	// would capture an unlabeled break.
	var walk func(n ast.Node, breakDepth int)
	walk = func(n ast.Node, breakDepth int) {
		if n == nil || exit {
			return
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exit = true
			return
		case *ast.BranchStmt:
			switch {
			case v.Tok.String() == "goto":
				exit = true
			case v.Tok.String() == "break" && v.Label == nil && breakDepth == 0:
				exit = true
			case v.Tok.String() == "break" && v.Label != nil:
				// Labeled break: assume it targets an enclosing loop
				// (this one or further out) — either way, out of here.
				exit = true
			}
			return
		case *ast.CallExpr:
			if neverReturns(v) {
				exit = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			breakDepth++
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, breakDepth)
			return false
		})
	}
	for _, st := range loop.Body.List {
		walk(st, 0)
		if exit {
			return true
		}
	}
	return false
}

// neverReturns recognizes calls that terminate the goroutine: panic,
// os.Exit, log.Fatal*, runtime.Goexit.
func neverReturns(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit",
			pkg.Name == "runtime" && fun.Sel.Name == "Goexit",
			pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		}
	}
	return false
}

// ---- lock effects ----

// updateLockEffects runs a branch-merging walk over decl tracking
// normalized mutex keys, recording what is still held at exit and what
// was released without a prior acquire.
func (p *Program) updateLockEffects(info *types.Info, decl *ast.FuncDecl, sum *Summary) bool {
	roots := lockRootObjects(info, decl)
	w := &lockEffectWalker{
		prog:     p,
		info:     info,
		roots:    roots,
		held:     map[string]bool{},
		released: map[string]bool{},
		deferred: map[string]bool{},
	}
	w.stmts(decl.Body.List)
	changed := false
	for k := range w.held {
		if w.deferred[k] {
			continue // a deferred unlock releases before the caller sees it
		}
		if sum.LocksAtExit == nil {
			sum.LocksAtExit = map[string]bool{}
		}
		if !sum.LocksAtExit[k] {
			sum.LocksAtExit[k] = true
			changed = true
		}
	}
	for k := range w.released {
		if sum.UnlocksAtEntry == nil {
			sum.UnlocksAtEntry = map[string]bool{}
		}
		if !sum.UnlocksAtEntry[k] {
			sum.UnlocksAtEntry[k] = true
			changed = true
		}
	}
	return changed
}

// lockRootObjects maps the receiver and parameters of decl to their
// normalized root spelling ("recv", "p0", "p1", ...).
func lockRootObjects(info *types.Info, decl *ast.FuncDecl) map[types.Object]string {
	roots := map[types.Object]string{}
	fn, ok := info.Defs[decl.Name].(*types.Func)
	if !ok {
		return roots
	}
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		roots[r] = "recv"
	}
	for i := 0; i < sig.Params().Len(); i++ {
		roots[sig.Params().At(i)] = fmt.Sprintf("p%d", i)
	}
	return roots
}

// normalizeLockKey renders the mutex expression expr relative to
// roots: "recv.mu", "p0.mu", "g:path.Var.mu". Locals and anything
// else return "", false — not summarizable.
func normalizeLockKey(info *types.Info, roots map[types.Object]string, expr ast.Expr) (string, bool) {
	var path []string
	e := ast.Unparen(expr)
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			path = append([]string{v.Sel.Name}, path...)
			e = ast.Unparen(v.X)
		case *ast.Ident:
			obj := objectOf(info, v)
			if obj == nil {
				return "", false
			}
			root, ok := roots[obj]
			if !ok {
				if vr, isVar := obj.(*types.Var); isVar && vr.Pkg() != nil && obj.Parent() == vr.Pkg().Scope() {
					root = "g:" + vr.Pkg().Path() + "." + vr.Name()
				} else {
					return "", false
				}
			}
			key := root
			for _, seg := range path {
				key += "." + seg
			}
			return key, true
		default:
			return "", false
		}
	}
}

// translateLockKey rewrites a callee summary key into the caller's
// terms at a call site: "recv.X" via the receiver expression, "pN.X"
// via argument N, "g:..." unchanged. Returns "", false when the
// relevant expression is not a stable spelling.
func translateLockKey(info *types.Info, key string, call *ast.CallExpr) (string, bool) {
	if len(key) > 2 && key[:2] == "g:" {
		return key, true
	}
	dot := len(key)
	for i, c := range key {
		if c == '.' {
			dot = i
			break
		}
	}
	root, rest := key[:dot], ""
	if dot < len(key) {
		rest = key[dot:]
	}
	var base ast.Expr
	switch {
	case root == "recv":
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		base = sel.X
	case len(root) > 1 && root[0] == 'p':
		idx := 0
		for _, c := range root[1:] {
			if c < '0' || c > '9' {
				return "", false
			}
			idx = idx*10 + int(c-'0')
		}
		if idx >= len(call.Args) {
			return "", false
		}
		base = call.Args[idx]
	default:
		return "", false
	}
	return exprString(ast.Unparen(base)) + rest, true
}

// lockEffectWalker is the summary-side statement walk. It mirrors the
// branch discipline of the lockheld analyzer (merge by intersection,
// early returns drop out) but tracks only normalized keys.
type lockEffectWalker struct {
	prog     *Program
	info     *types.Info
	roots    map[types.Object]string
	held     map[string]bool
	released map[string]bool
	deferred map[string]bool
}

func (w *lockEffectWalker) stmts(list []ast.Stmt) bool {
	for _, st := range list {
		if w.stmt(st) {
			return true
		}
	}
	return false
}

func (w *lockEffectWalker) stmt(st ast.Stmt) (terminated bool) {
	switch v := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.DeferStmt:
		if key, name, ok := w.mutexKey(v.Call); ok && (name == "Unlock" || name == "RUnlock") {
			w.deferred[key] = true
		} else if cs := w.prog.calleeSummary(w.info, v.Call); cs != nil {
			for k := range cs.UnlocksAtEntry {
				if ck, ok := translateLockKey(w.info, k, v.Call); ok {
					w.deferred[ck] = true
				}
			}
		}
	case *ast.BlockStmt:
		return w.stmts(v.List)
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init)
		}
		w.scan(v.Cond)
		thenW := w.branch()
		thenTerm := thenW.stmts(v.Body.List)
		elseW := w.branch()
		elseTerm := false
		if v.Else != nil {
			elseTerm = elseW.stmt(v.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			w.adopt(elseW)
		case elseTerm:
			w.adopt(thenW)
		default:
			w.merge(thenW, elseW)
		}
	case *ast.ForStmt, *ast.RangeStmt:
		// Loop bodies run zero or more times; effects inside do not
		// reach the exit summary (matching the analyzer's treatment).
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Branchy: skip bodies, keep the pre-switch state.
	case *ast.LabeledStmt:
		return w.stmt(v.Stmt)
	default:
		w.scan(st)
	}
	return false
}

// scan applies mutex transitions and callee effects found in n.
func (w *lockEffectWalker) scan(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, name, ok := w.mutexKey(call); ok {
			switch name {
			case "Lock", "RLock":
				w.held[key] = true
			case "Unlock", "RUnlock":
				if w.held[key] {
					delete(w.held, key)
				} else {
					w.released[key] = true
				}
			}
			return true
		}
		if cs := w.prog.calleeSummary(w.info, call); cs != nil {
			for k := range cs.UnlocksAtEntry {
				if ck, ok := translateLockKey(w.info, k, call); ok {
					if w.held[ck] {
						delete(w.held, ck)
					} else {
						w.released[ck] = true
					}
				}
			}
			for k := range cs.LocksAtExit {
				if ck, ok := translateLockKey(w.info, k, call); ok {
					w.held[ck] = true
				}
			}
		}
		return true
	})
}

// mutexKey recognizes a Lock/Unlock/RLock/RUnlock call on a
// summarizable mutex and returns its normalized key.
func (w *lockEffectWalker) mutexKey(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := w.info.Types[sel.X]
	if !found || (!isNamed(tv.Type, "sync", "Mutex") && !isNamed(tv.Type, "sync", "RWMutex")) {
		return "", "", false
	}
	key, ok = normalizeLockKey(w.info, w.roots, sel.X)
	if !ok {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

func (w *lockEffectWalker) branch() *lockEffectWalker {
	cp := &lockEffectWalker{
		prog:     w.prog,
		info:     w.info,
		roots:    w.roots,
		held:     map[string]bool{},
		released: map[string]bool{},
		deferred: w.deferred, // defers are function-scoped
	}
	for k := range w.held {
		cp.held[k] = true
	}
	for k := range w.released {
		cp.released[k] = true
	}
	return cp
}

func (w *lockEffectWalker) adopt(b *lockEffectWalker) {
	w.held = b.held
	w.released = b.released
}

func (w *lockEffectWalker) merge(a, b *lockEffectWalker) {
	held := map[string]bool{}
	for k := range a.held {
		if b.held[k] {
			held[k] = true
		}
	}
	w.held = held
	for k := range a.released {
		w.released[k] = true
	}
	for k := range b.released {
		w.released[k] = true
	}
}

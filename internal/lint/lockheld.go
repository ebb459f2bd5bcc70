package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHeld enforces the health-ledger locking discipline from the
// delivery-robustness work: a sync.Mutex or RWMutex acquired in a
// function must be released before that function performs delivery
// I/O — an HTTP exchange, a raw-TCP frame write, a retried operation,
// a fan-out dispatch, or a channel send. Holding a ledger lock across
// a delivery RPC serializes the entire fan-out behind the slowest
// consumer (and can deadlock outright when the consumer calls back
// in); the record/snapshot/unlock/persist shape in wsn and wse exists
// precisely to avoid this.
// Since the interprocedural engine landed, "performs delivery I/O"
// and "acquires/releases a mutex" both see through helpers: a call to
// a function whose summary says it blocks is flagged exactly like a
// direct http.Client.Do, and lock/unlock helper methods (s.lockAll(),
// s.unlockAll()) transfer their net effect into the caller's held set.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no delivery I/O (HTTP, net.Conn, retry.Do, fanout.Do, channel send, or a helper that performs any of these) while a mutex acquired in the same function is held",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) error {
	for _, file := range pass.Files {
		enclosingFuncs(file, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
			held := map[string]token.Pos{}
			walkLockStmts(pass, body.List, held)
		})
	}
	return nil
}

// walkLockStmts processes stmts in order, tracking which mutexes are
// held, and reports delivery calls made while any lock is live. It
// returns true when the statement list always terminates the function
// (return or panic), which lets branch processing keep the common
// "unlock-and-return early" shape precise.
func walkLockStmts(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) bool {
	for _, stmt := range stmts {
		if walkLockStmt(pass, stmt, held) {
			return true
		}
	}
	return false
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held map[string]token.Pos) (terminated bool) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		scanLockExpr(pass, v.X, held)
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.ReturnStmt, *ast.DeclStmt:
		if ret, ok := stmt.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				scanLockExpr(pass, r, held)
			}
			return true
		}
		scanStmtCalls(pass, stmt, held)
	case *ast.SendStmt:
		if len(held) > 0 {
			pass.Reportf(v.Arrow, "channel send while %s is held", heldNames(held))
		}
		scanStmtCalls(pass, stmt, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end; a
		// deferred delivery call runs after the body, outside this
		// analysis. Neither changes the held set here.
		if lockExpr, _, ok := mutexCall(pass, v.Call); ok {
			_ = lockExpr // deferred Lock is nonsense; ignore either way
		}
	case *ast.BlockStmt:
		return walkLockStmts(pass, v.List, held)
	case *ast.IfStmt:
		if v.Init != nil {
			walkLockStmt(pass, v.Init, held)
		}
		scanLockExpr(pass, v.Cond, held)
		branch := copyHeld(held)
		bodyTerm := walkLockStmts(pass, v.Body.List, branch)
		var elseTerm bool
		elseHeld := copyHeld(held)
		if v.Else != nil {
			elseTerm = walkLockStmt(pass, v.Else, elseHeld)
		}
		// Merge: a branch that always returns contributes nothing to
		// the fallthrough state; otherwise a lock survives only if it
		// survives every path that falls through.
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replaceHeld(held, elseHeld)
		case elseTerm:
			replaceHeld(held, branch)
		default:
			intersectHeld(held, branch, elseHeld)
		}
	case *ast.ForStmt:
		if v.Init != nil {
			walkLockStmt(pass, v.Init, held)
		}
		if v.Cond != nil {
			scanLockExpr(pass, v.Cond, held)
		}
		body := copyHeld(held)
		walkLockStmts(pass, v.Body.List, body)
	case *ast.RangeStmt:
		scanLockExpr(pass, v.X, held)
		body := copyHeld(held)
		walkLockStmts(pass, v.Body.List, body)
	case *ast.SwitchStmt:
		if v.Init != nil {
			walkLockStmt(pass, v.Init, held)
		}
		if v.Tag != nil {
			scanLockExpr(pass, v.Tag, held)
		}
		walkCaseBodies(pass, v.Body, held)
	case *ast.TypeSwitchStmt:
		walkCaseBodies(pass, v.Body, held)
	case *ast.SelectStmt:
		for _, cl := range v.Body.List {
			cc := cl.(*ast.CommClause)
			branch := copyHeld(held)
			if cc.Comm != nil {
				walkLockStmt(pass, cc.Comm, branch)
			}
			walkLockStmts(pass, cc.Body, branch)
		}
	case *ast.GoStmt:
		// The goroutine body runs concurrently; its lock discipline is
		// analyzed on its own when enclosingFuncs reaches the literal.
	case *ast.LabeledStmt:
		return walkLockStmt(pass, v.Stmt, held)
	default:
		scanStmtCalls(pass, stmt, held)
	}
	return false
}

func walkCaseBodies(pass *Pass, body *ast.BlockStmt, held map[string]token.Pos) {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			branch := copyHeld(held)
			walkLockStmts(pass, cc.Body, branch)
		}
	}
}

// scanStmtCalls finds calls nested in a non-control statement.
func scanStmtCalls(pass *Pass, stmt ast.Stmt, held map[string]token.Pos) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if call, ok2 := ast.Unparen(e).(*ast.CallExpr); ok2 {
				classifyLockCall(pass, call, held)
			}
		}
		return true
	})
}

// scanLockExpr processes one expression for lock transitions and
// forbidden calls, skipping function literals (their bodies are
// analyzed as functions of their own).
func scanLockExpr(pass *Pass, expr ast.Expr, held map[string]token.Pos) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			classifyLockCall(pass, call, held)
		}
		return true
	})
}

func classifyLockCall(pass *Pass, call *ast.CallExpr, held map[string]token.Pos) {
	if key, name, ok := mutexCall(pass, call); ok {
		switch name {
		case "Lock", "RLock":
			held[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return
	}
	if len(held) > 0 {
		if what := deliveryCall(pass.TypesInfo, call); what != "" {
			pass.Reportf(call.Pos(), "%s while %s is held — release the lock before delivery I/O", what, heldNames(held))
			return
		}
	}
	// Helper calls: a summarized callee can perform the delivery, or
	// shift the held set (lock/unlock helper methods).
	cs := pass.Prog.calleeSummary(pass.TypesInfo, call)
	if cs == nil {
		return
	}
	if len(held) > 0 && cs.Blocking != "" {
		pass.Reportf(call.Pos(), "call to %s performs delivery I/O (%s) while %s is held — release the lock before delivery I/O",
			funcDisplayName(cs.Func), cs.Blocking, heldNames(held))
	}
	for k := range cs.UnlocksAtEntry {
		if ck, ok := translateLockKey(pass.TypesInfo, k, call); ok {
			delete(held, ck)
		}
	}
	for k := range cs.LocksAtExit {
		if ck, ok := translateLockKey(pass.TypesInfo, k, call); ok {
			held[ck] = call.Pos()
		}
	}
}

// mutexCall recognizes X.Lock/Unlock/RLock/RUnlock where X is a
// sync.Mutex or sync.RWMutex, returning X's stable expression key.
// Package-level mutexes normalize to the same "g:" key the summary
// engine uses, so a direct Lock pairs with a helper's Unlock.
func mutexCall(pass *Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := pass.TypesInfo.Types[sel.X]
	if !found {
		return "", "", false
	}
	if !isNamed(tv.Type, "sync", "Mutex") && !isNamed(tv.Type, "sync", "RWMutex") {
		return "", "", false
	}
	if gk, isGlobal := normalizeLockKey(pass.TypesInfo, nil, sel.X); isGlobal {
		return gk, sel.Sel.Name, true
	}
	return exprString(sel.X), sel.Sel.Name, true
}

// deliveryCall names the delivery operation call performs, or "".
func deliveryCall(info *types.Info, call *ast.CallExpr) string {
	switch {
	case calleeIsMethod(info, call, "net/http", "Client", "Do"):
		return "http.Client.Do"
	case calleeIsMethod(info, call, "net/http", "RoundTripper", "RoundTrip"):
		return "http.RoundTripper.RoundTrip"
	case calleeIsFunc(info, call, "altstacks/internal/retry", "Do"):
		return "retry.Do"
	case calleeIsFunc(info, call, "altstacks/internal/fanout", "Do"):
		return "fanout.Do"
	case calleeIsMethod(info, call, "altstacks/internal/wse", "TCPDeliverer", "DeliverContext"):
		return "TCPDeliverer.DeliverContext"
	}
	for _, m := range [...]string{"Call", "CallEnvelope", "CallContext", "Deliver", "callEnvelope", "exchange"} {
		if calleeIsMethod(info, call, "altstacks/internal/container", "Client", m) {
			return "container client " + m
		}
	}
	if f := callee(info, call); f != nil && (f.Name() == "Read" || f.Name() == "Write") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, found := info.Types[sel.X]; found && isNamed(tv.Type, "net", "Conn") {
				return "net.Conn." + f.Name()
			}
		}
	}
	return ""
}

// heldNames renders the held set for diagnostics, stably ordered.
// Normalized package-level keys ("g:path/pkg.Var.mu") print as their
// source spelling ("Var.mu").
func heldNames(held map[string]token.Pos) string {
	names := make([]string, 0, len(held))
	for k := range held {
		if rest, ok := strings.CutPrefix(k, "g:"); ok {
			if dot := strings.LastIndex(rest, "/"); dot >= 0 {
				rest = rest[dot+1:]
			}
			if dot := strings.Index(rest, "."); dot >= 0 {
				rest = rest[dot+1:]
			}
			k = rest
		}
		names = append(names, k)
	}
	sort.Strings(names)
	return "mutex " + strings.Join(names, ", ")
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	cp := make(map[string]token.Pos, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func replaceHeld(held, with map[string]token.Pos) {
	for k := range held {
		delete(held, k)
	}
	for k, v := range with {
		held[k] = v
	}
}

func intersectHeld(held, a, b map[string]token.Pos) {
	for k := range held {
		delete(held, k)
	}
	for k, v := range a {
		if _, ok := b[k]; ok {
			held[k] = v
		}
	}
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SoapFault enforces error propagation in handler and delivery code:
// inside the container and the two stacks' service layers, an error
// must reach either the SOAP-fault mapper (by being returned up the
// handler chain) or the delivery health ledger (by being recorded
// against the subscription) — never silently vanish. The two shapes
// that vanish errors are discarding (`_ = f()`, `_, _ = f()`, or an
// error-returning call used as a bare statement) and a checked-but-
// dropped branch (`if err != nil { log only }`).
//
// The check runs only in the handler/delivery packages; storage,
// harness, and utility packages keep idiomatic best-effort calls.
var SoapFault = &Analyzer{
	Name: "soapfault",
	Doc:  "handler/delivery errors must propagate to the fault mapper or the health ledger, not be discarded",
	Run:  runSoapFault,
}

// soapFaultPackages is the handler/delivery surface: the container
// pipeline, both notification stacks and the delivery engine they
// share, the service layers built on them, and the SOAP/addressing/
// security layers that feed the fault mapper.
var soapFaultPackages = map[string]bool{
	"altstacks/internal/container": true,
	"altstacks/internal/fanout":    true,
	"altstacks/internal/soap":      true,
	"altstacks/internal/wsa":       true,
	"altstacks/internal/wssec":     true,
	"altstacks/internal/wsn":       true,
	"altstacks/internal/wse":       true,
	"altstacks/internal/wsrf":      true,
	"altstacks/internal/wst":       true,
	"altstacks/internal/wsmex":     true,
	"altstacks/internal/counter":   true,
	"altstacks/internal/gridbox":   true,
}

// fixture packages opt in by name so analysistest can exercise the
// check outside the real import paths.
func soapFaultApplies(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return soapFaultPackages[pkg.Path()] || strings.HasPrefix(pkg.Path(), "testdata/soapfault")
}

func runSoapFault(pass *Pass) error {
	if !soapFaultApplies(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				checkBlankDiscard(pass, v)
			case *ast.ExprStmt:
				checkBareErrorCall(pass, v)
			case *ast.IfStmt:
				checkDroppedErrBranch(pass, v)
			}
			return true
		})
	}
	return nil
}

// checkBlankDiscard flags assignments whose targets are all blank and
// whose value includes an error.
func checkBlankDiscard(pass *Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return
		}
	}
	for _, rhs := range as.Rhs {
		if !yieldsError(pass.TypesInfo, rhs) {
			continue
		}
		pass.Reportf(as.Pos(), "error from %s discarded on a handler/delivery path; return it toward the fault mapper or record it in the health ledger", describeExpr(rhs))
		return
	}
}

// checkBareErrorCall flags error-returning calls used as statements,
// whether the call names a declared function or goes through a func
// value (a func-typed field or variable): the call's type decides.
// Close/Stop are exempt by the called name (universal teardown idiom),
// as are methods on in-memory writers that return error only to
// satisfy io interfaces.
func checkBareErrorCall(pass *Pass, st *ast.ExprStmt) {
	call, ok := ast.Unparen(st.X).(*ast.CallExpr)
	if !ok || !yieldsError(pass.TypesInfo, call) {
		return
	}
	if id := calledIdent(call); id != nil && (id.Name == "Close" || id.Name == "Stop") {
		return
	}
	if f := callee(pass.TypesInfo, call); f != nil {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if isNamed(recv, "bytes", "Buffer") || isNamed(recv, "strings", "Builder") {
				return
			}
		}
	}
	pass.Reportf(st.Pos(), "%s returns an error that is silently dropped; handle it or discard it explicitly with a justified lint:ignore", describeExpr(call))
}

// checkDroppedErrBranch flags `if err != nil { ... }` bodies that
// neither propagate nor transfer control: every statement is a plain
// call (logging and the like), so the error is checked and then
// forgotten. Handing the error itself to a non-printing function — a
// ledger recorder, a fault counter — counts as propagation.
func checkDroppedErrBranch(pass *Pass, ifs *ast.IfStmt) {
	errObj := errNotNilObject(pass.TypesInfo, ifs.Cond)
	if errObj == nil || len(ifs.Body.List) == 0 || ifs.Else != nil {
		return
	}
	for _, st := range ifs.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, arg := range call.Args {
			if mentions(pass.TypesInfo, arg, errObj) && !isPrintCall(pass.TypesInfo, call) {
				return // error handed to a recorder
			}
		}
	}
	pass.Reportf(ifs.Pos(), "error is checked but dropped: the branch neither returns nor records it; propagate toward the fault mapper or the health ledger")
}

// isPrintCall reports whether call is fmt or log output — the "only
// logs" half of the dropped-error shape.
func isPrintCall(info *types.Info, call *ast.CallExpr) bool {
	f := callee(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "fmt", "log", "log/slog":
		return true
	}
	return false
}

// errNotNilObject matches `x != nil` where x is an error-typed
// variable, returning x's object (nil when the shape doesn't match).
func errNotNilObject(info *types.Info, cond ast.Expr) types.Object {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return nil
	}
	x, y := be.X, be.Y
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) || !isErrorType(info, x) {
		return nil
	}
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		return objectOf(info, id)
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && types.Identical(tv.Type, errorType)
}

var errorType = types.Universe.Lookup("error").Type()

// yieldsError reports whether expr's type (or any component of its
// tuple type) is error.
func yieldsError(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(tv.Type, errorType)
}

func describeExpr(e ast.Expr) string {
	s := exprString(e)
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

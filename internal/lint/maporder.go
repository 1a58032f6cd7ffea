package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MaporderAnalyzer guards report byte-identity and canonical-hash
// stability against Go's randomized map iteration: a `for range` over a
// map whose body writes to an io.Writer (report renderers, hash.Hash,
// strings.Builder) or to stdout (fmt.Print*), feeds canonical JSON, or
// appends freshly rendered strings produces output whose order differs
// run to run — exactly the failure that breaks Spec.Hash() stability,
// golden corpora, and CLI↔daemon byte-comparison. The fix is always the
// same: collect the keys, sort them, iterate the slice (appending the
// bare key inside the range is therefore allowed).
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration feeding writers, hashes, canonical JSON, or rendered slices",
	Run:  runMaporder,
}

// ioWriter is a structural io.Writer, built without importing anything:
// Write([]byte) (int, error).
var ioWriter = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	fn := types.NewFunc(token.NoPos, nil, "Write", sig)
	iface := types.NewInterfaceType([]*types.Func{fn}, nil)
	iface.Complete()
	return iface
}()

// implementsWriter reports whether t or *t satisfies io.Writer.
func implementsWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, ioWriter) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), ioWriter)
	}
	return false
}

// writerMethods are the method names whose call on an io.Writer-shaped
// receiver emits bytes in iteration order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
}

// renderFuncs produce a rendered string: appending their result inside
// a map range builds an order-dependent slice.
func isRenderCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	switch pkgOf(fn) {
	case "fmt":
		return strings.HasPrefix(fn.Name(), "Sprint")
	case "strconv":
		return strings.HasPrefix(fn.Name(), "Format") || fn.Name() == "Itoa" || fn.Name() == "Quote"
	}
	return false
}

func runMaporder(p *Pass) {
	for _, f := range sourceFiles(p) {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(p, rs)
			return true
		})
	}
}

// checkMapRangeBody flags order-sensitive sinks in the body of one map
// range. Nested map ranges are skipped here — each is inspected as its
// own range, so an offense is reported exactly once.
func checkMapRangeBody(p *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs {
			if t := p.Info.TypeOf(inner.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
				for _, arg := range call.Args[1:] {
					if isRenderCall(p.Info, arg) {
						p.Reportf(arg.Pos(), "appending a rendered string inside a map iteration builds order-dependent output: collect and sort the map keys first")
					}
				}
				return true
			}
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		switch {
		case pkgOf(fn) == "fmt" && (strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")):
			p.Reportf(call.Pos(), "fmt.%s inside a map iteration emits bytes in random order: collect and sort the map keys first", fn.Name())
		case pkgOf(fn) == "encoding/json" && (fn.Name() == "Marshal" || fn.Name() == "MarshalIndent" || fn.Name() == "Encode"):
			p.Reportf(call.Pos(), "encoding/json %s inside a map iteration feeds canonical JSON in random order: collect and sort the map keys first", fn.Name())
		case writerMethods[fn.Name()] && implementsWriter(recvOf(fn)):
			p.Reportf(call.Pos(), "%s on an io.Writer inside a map iteration emits bytes in random order: collect and sort the map keys first", fn.Name())
		}
		return true
	})
}

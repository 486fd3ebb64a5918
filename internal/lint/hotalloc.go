package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc checks that //hep:noalloc-annotated functions contain no
// allocating constructs. The annotation goes on the doc comment (or first
// line) of a function that sits on a per-edge or per-batch hot path — the
// obs nil-hub hooks, the HDRF class-min scorer (bestHDRF, whose finalist
// tables are fixed-size arrays on the stack) and the one per-edge HDRF
// loop (hdrfPlacer.PlaceBatch), the batch loop of shard.Run and the
// per-edge slab fill of shard.Lend's copy adapter — and the analyzer then
// rejects, anywhere in the function body:
//
//   - make, new, append (append may grow; pre-sized scratch belongs to the
//     caller), string concatenation and []byte/string conversions
//   - composite literals of reference or boxed kinds (slice, map, pointer
//     target via &T{...})
//   - function literals (closure environments allocate)
//   - go statements (goroutine stacks) and defer (deferred frames may
//     allocate pre-1.22-style; hot paths should not defer anyway)
//   - implicit interface boxing of non-pointer values at call arguments,
//     assignments and returns — the classic fmt.Sprintf-style escape
//
// Blocks guarded by `if check.Enabled { ... }` (the hepcheck shim) are
// skipped: assertions compile out of release builds, so their allocation
// behavior is irrelevant to the hot path.
//
// The check is syntactic and conservative by design — a finding means "this
// construct can allocate", not "this allocates on every execution". Escape
// analysis wins some of these back at compile time; the policy for annotated
// functions is to not play that game on hot paths.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//hep:noalloc functions must contain no allocating constructs",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) error {
	p.WalkParents(func(n ast.Node, stack []ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			// An annotated literal promises its BODY is allocation-free per
			// call — the closure itself is built once at setup (the runOne
			// flush pattern); a literal inside a noalloc FuncDecl is still an
			// allocation there.
			body = fn.Body
		default:
			return true
		}
		if _, annotated := p.FuncAnnotation(n, "noalloc"); !annotated {
			return true
		}
		if body != nil {
			p.checkNoAlloc(body)
		}
		return false
	})
	return nil
}

// checkNoAlloc walks a noalloc function body reporting allocating constructs.
func (p *Pass) checkNoAlloc(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			// Skip `if check.Enabled { ... }` hepcheck assertion blocks.
			if sel, ok := x.Cond.(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" && isPkgSel(p.Info, sel, "hep/internal/check") {
				if x.Init != nil {
					p.checkNoAlloc(x.Init)
				}
				if x.Else != nil {
					p.checkNoAlloc(x.Else)
				}
				return false
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				if b, isB := p.Info.Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "make", "new", "append":
						p.Reportf(x.Pos(), "%s in //hep:noalloc function", b.Name())
						return true
					}
				}
			}
			// Conversions that copy: string(b), []byte(s), []rune(s).
			if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				to := types.Unalias(tv.Type)
				from := p.Info.Types[x.Args[0]].Type
				if allocatingConversion(to, from) {
					p.Reportf(x.Pos(), "allocating conversion in //hep:noalloc function")
				}
				return true
			}
			p.checkBoxedArgs(x)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(p.Info.Types[x.X].Type) {
				// Constant folding is free; only flag non-constant concat.
				if tv, ok := p.Info.Types[x]; !ok || tv.Value == nil {
					p.Reportf(x.Pos(), "string concatenation in //hep:noalloc function")
				}
			}
		case *ast.CompositeLit:
			switch types.Unalias(p.Info.Types[x].Type.Underlying()).(type) {
			case *types.Slice, *types.Map:
				p.Reportf(x.Pos(), "slice/map literal in //hep:noalloc function")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := x.X.(*ast.CompositeLit); isLit {
					p.Reportf(x.Pos(), "&T{...} allocation in //hep:noalloc function")
				}
			}
		case *ast.FuncLit:
			p.Reportf(x.Pos(), "function literal in //hep:noalloc function")
			return false
		case *ast.GoStmt:
			p.Reportf(x.Pos(), "go statement in //hep:noalloc function")
		case *ast.DeferStmt:
			p.Reportf(x.Pos(), "defer in //hep:noalloc function")
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i < len(x.Lhs) {
					p.checkBoxing(rhs, p.Info.Types[x.Lhs[i]].Type)
				}
			}
		case *ast.ReturnStmt:
			// Boxing at returns is caught via the expression's recorded type
			// pair only when go/types records an implicit conversion; keep to
			// the argument/assignment cases, which cover the hot paths.
		}
		return true
	})
}

// checkBoxedArgs flags non-pointer concrete values passed to interface-typed
// parameters (interface boxing allocates unless the value is pointer-shaped).
func (p *Pass) checkBoxedArgs(call *ast.CallExpr) {
	sig, ok := types.Unalias(p.Info.Types[call.Fun].Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len():
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
			if s, ok := types.Unalias(pt).(*types.Slice); ok {
				pt = s.Elem()
			}
		default:
			continue
		}
		p.checkBoxing(arg, pt)
	}
}

// checkBoxing reports arg if assigning it to target boxes a non-pointer
// concrete value into an interface.
func (p *Pass) checkBoxing(arg ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	at := p.Info.Types[arg].Type
	if at == nil || types.IsInterface(at.Underlying()) {
		return
	}
	switch types.Unalias(at).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: boxing is a direct store
	}
	if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
		// Untyped constants may still box, but small-int boxing hits the
		// runtime's static cache; allow constants.
		return
	}
	p.Reportf(arg.Pos(), "interface boxing of non-pointer value in //hep:noalloc function")
}

func allocatingConversion(to, from types.Type) bool {
	if from == nil {
		return false
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if isStringType(to) {
		if sl, ok := types.Unalias(fromU).(*types.Slice); ok {
			return isByteOrRune(sl.Elem())
		}
		return false
	}
	if sl, ok := types.Unalias(toU).(*types.Slice); ok && isByteOrRune(sl.Elem()) {
		return isStringType(from)
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRune(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

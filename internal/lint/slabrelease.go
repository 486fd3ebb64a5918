package lint

import (
	"go/ast"
	"go/types"
)

// SlabRelease checks the lent-slab protocol of graph.ChunkStream, whose
// producers (the ooc chunked reader among them) read into a slab again only
// once it is released: a consumer callback that receives a `release func()`
// parameter (the repo-wide convention for lent chunks) must call release on
// every control-flow path — directly or via defer — before the callback
// returns or falls off its end.
//
// Passing release anywhere else (storing it, handing it to another function
// or goroutine, returning it) transfers the obligation out of the analyzer's
// sight and must carry a //hep:xfer annotation with a one-line justification;
// the annotation may sit on the escape line, the line above it, or the
// callback's declaration.
//
// The analysis is a per-statement state machine, deliberately conservative:
//
//   - if/else joins with AND — both branches must release (a branch that
//     returns is exempt from the join, and is checked at its return)
//   - releases inside for/range/switch/select bodies do not count toward the
//     paths after them (a loop body may run zero times); returns inside them
//     are still checked
//   - panic terminates a path without obligation (the process is going down)
//
// A false positive on a genuinely-correct shape is resolved with //hep:xfer
// and a justification saying so — that is the designed escape hatch, and it
// leaves an audit trail.
var SlabRelease = &Analyzer{
	Name: "slabrelease",
	Doc:  "lent chunks must reach release() on all paths (escape: //hep:xfer <why>)",
	Run:  runSlabRelease,
}

func runSlabRelease(p *Pass) error {
	p.WalkParents(func(n ast.Node, stack []ast.Node) bool {
		var ft *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ft, body = fn.Type, fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		relObj := releaseParam(p.Info, ft)
		if relObj == nil {
			return true
		}
		if a, ok := p.FuncAnnotation(n, "xfer"); ok {
			if a.Why == "" {
				p.Reportf(a.Pos, "//hep:xfer needs a one-line justification")
			}
			return true // whole-function transfer; nested funcs still walked? no — obligation waived
		}
		sc := &slabCheck{p: p, rel: relObj}
		released, terminated := sc.stmts(body.List, false)
		if !released && !terminated {
			p.Reportf(body.Rbrace, "callback may end without calling release() on the lent slab")
		}
		return true // keep walking: nested callbacks get their own check
	})
	return nil
}

// releaseParam returns the types object of a parameter named "release" with
// type func(), or nil.
func releaseParam(info *types.Info, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name != "release" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			sig, ok := types.Unalias(obj.Type()).Underlying().(*types.Signature)
			if ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				return obj
			}
		}
	}
	return nil
}

type slabCheck struct {
	p   *Pass
	rel types.Object
}

// stmts runs the state machine over a statement list. released is the state
// on entry; the returns are (released on fallthrough, all paths terminated).
func (sc *slabCheck) stmts(list []ast.Stmt, released bool) (bool, bool) {
	for _, s := range list {
		var term bool
		released, term = sc.stmt(s, released)
		if term {
			return released, true
		}
	}
	return released, false
}

func (sc *slabCheck) stmt(s ast.Stmt, released bool) (bool, bool) {
	// Escapes inside leaf statements transfer (or leak) the obligation;
	// after a sanctioned transfer the path owes nothing. Compound statements
	// are not scanned here — recursion reaches their leaves.
	switch s.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
	default:
		if sc.escapes(s) {
			released = true
		}
	}
	switch x := s.(type) {
	case *ast.ExprStmt:
		if sc.isReleaseCall(x.X) {
			return true, false
		}
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, isB := sc.p.Info.Uses[id].(*types.Builtin); isB && b.Name() == "panic" {
					return released, true
				}
			}
		}
		return released, false
	case *ast.DeferStmt:
		if id, ok := x.Call.Fun.(*ast.Ident); ok && sc.p.Info.Uses[id] == sc.rel {
			return true, false
		}
		return released, false
	case *ast.ReturnStmt:
		if !released {
			if a, ok := sc.p.AnnotationAt(x.Pos(), "xfer"); ok {
				if a.Why == "" {
					sc.p.Reportf(a.Pos, "//hep:xfer needs a one-line justification")
				}
			} else {
				sc.p.Reportf(x.Pos(), "return without calling release() on the lent slab")
			}
		}
		return released, true
	case *ast.BlockStmt:
		return sc.stmts(x.List, released)
	case *ast.IfStmt:
		if x.Init != nil {
			released, _ = sc.stmt(x.Init, released)
		}
		r1, t1 := sc.stmts(x.Body.List, released)
		r2, t2 := released, false
		if x.Else != nil {
			r2, t2 = sc.stmt(x.Else, released)
		}
		switch {
		case t1 && t2:
			return released, true
		case t1:
			return r2, false
		case t2:
			return r1, false
		default:
			return r1 && r2, false
		}
	case *ast.ForStmt:
		sc.stmts(x.Body.List, released) // check returns inside; effects don't escape the loop
		return released, false
	case *ast.RangeStmt:
		sc.stmts(x.Body.List, released)
		return released, false
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sc.stmts(cc.Body, released)
			}
		}
		return released, false
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sc.stmts(cc.Body, released)
			}
		}
		return released, false
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sc.stmts(cc.Body, released)
			}
		}
		return released, false
	case *ast.LabeledStmt:
		return sc.stmt(x.Stmt, released)
	default:
		return released, false
	}
}

// isReleaseCall reports whether e is a direct `release()` call.
func (sc *slabCheck) isReleaseCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && sc.p.Info.Uses[id] == sc.rel
}

// escapes scans one statement for uses of the release value other than a
// direct call (or defer) at this statement level: assignment, argument,
// capture by a nested function literal, return value. Such a use transfers
// the obligation; it must carry //hep:xfer or be reported.
func (sc *slabCheck) escapes(s ast.Stmt) bool {
	escaped := false
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch y := m.(type) {
			case *ast.FuncLit:
				walk(y.Body, true)
				return false
			case *ast.CallExpr:
				// The callee position of a call is a use, not an escape —
				// unless we are inside a nested literal, where execution is
				// decoupled from this path.
				if id, ok := y.Fun.(*ast.Ident); ok && sc.p.Info.Uses[id] == sc.rel && !inLit {
					for _, arg := range y.Args {
						walk(arg, inLit)
					}
					return false
				}
				return true
			case *ast.Ident:
				if sc.p.Info.Uses[y] == sc.rel {
					escaped = true
					if a, ok := sc.p.AnnotationAt(y.Pos(), "xfer"); ok {
						if a.Why == "" {
							sc.p.Reportf(a.Pos, "//hep:xfer needs a one-line justification")
						}
					} else {
						sc.p.Reportf(y.Pos(), "release obligation escapes here; annotate with //hep:xfer <why> or call it on this path")
					}
				}
			}
			return true
		})
	}
	// Defer of release itself is handled by the state machine; skip it here.
	if d, ok := s.(*ast.DeferStmt); ok {
		if id, isID := d.Call.Fun.(*ast.Ident); isID && sc.p.Info.Uses[id] == sc.rel {
			return false
		}
	}
	walk(s, false)
	return escaped
}

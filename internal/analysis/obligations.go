package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared path-sensitive engine behind pinnedleak and
// ticketawait. Both checks are instances of the same local obligation
// problem: a call acquires a resource (a pinned/arena buffer, an async
// collective ticket) that must be discharged — released/awaited, or
// explicitly handed off — on every path out of the function, including
// error returns (the PR 2 bug class).
//
// The analysis is intraprocedural and deliberately honest about ownership
// transfer: an obligation is discharged not only by its release call but
// also when the resource escapes the function — returned, stored into a
// field/map/slice/composite literal, captured by a closure, or sent on a
// channel — because responsibility then lies with whoever holds the
// reference (the engines' in-flight records, pending lists and reaper
// goroutines all work this way). What remains must be balanced locally, and
// that is exactly the shape of the historical leaks.
//
// Control flow is interpreted over the structured AST: branches fork the
// abstract state and merge at join points, nil checks act as guards (the
// arm in which the resource is nil holds nothing), loop bodies are
// interpreted once, and panic paths are exempt (the process is crashing;
// buffers are not coming back to the pool anyway).

// obligationSpec configures one analyzer instance of the engine.
type obligationSpec struct {
	// what the resource is called in diagnostics, e.g. "pinned/arena buffer".
	noun string
	// acquire classifies a call as creating an obligation; desc names the
	// resource in the diagnostic (e.g. "arena buffer from Arena.Get").
	acquire func(info *types.Info, call *ast.CallExpr) (desc string, ok bool)
	// release classifies a call as discharging the obligation passed as its
	// argument (Release/Put); the engine matches the argument (possibly
	// sliced) against tracked variables.
	release func(info *types.Info, call *ast.CallExpr) bool
	// wait classifies a method call on the tracked variable itself as a
	// discharge (Ticket.Wait).
	wait func(info *types.Info, sel *ast.SelectorExpr) bool
	// sink lists callees that take ownership of an argument (repo-specific
	// hand-off points, e.g. Param.SetData); a tracked variable passed to a
	// sink is discharged. Matched by method/function name.
	sink map[string]bool
	// argEscapes makes any plain call-argument use a discharge (tickets are
	// always handed off whole; buffers are usually borrowed, so pinnedleak
	// leaves this false and relies on release/sink/escape).
	argEscapes bool
}

type obligation struct {
	v        *types.Var
	pos      token.Pos
	desc     string
	reported bool
}

type obState struct {
	live map[*types.Var]*obligation
}

func newObState() *obState { return &obState{live: make(map[*types.Var]*obligation)} }

func (s *obState) clone() *obState {
	c := newObState()
	for k, v := range s.live {
		c.live[k] = v
	}
	return c
}

func (s *obState) mergeFrom(o *obState) {
	for k, v := range o.live {
		if _, ok := s.live[k]; !ok {
			s.live[k] = v
		}
	}
}

// obWalker interprets one function body.
type obWalker struct {
	pass *Pass
	spec *obligationSpec
}

// runObligations runs spec over every function and function literal in the
// package.
func runObligations(pass *Pass, spec *obligationSpec) error {
	w := &obWalker{pass: pass, spec: spec}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.runBody(fn.Body)
				}
			case *ast.FuncLit:
				w.runBody(fn.Body)
			}
			return true
		})
	}
	return nil
}

func (w *obWalker) info() *types.Info { return w.pass.TypesInfo }

func (w *obWalker) runBody(body *ast.BlockStmt) {
	st := newObState()
	terminated := w.block(body.List, st)
	if !terminated {
		w.checkExit(st, body.End())
	}
}

// checkExit reports every obligation still live when a path leaves the
// function.
func (w *obWalker) checkExit(st *obState, exit token.Pos) {
	for _, ob := range st.live {
		if ob.reported {
			continue
		}
		ob.reported = true
		line := w.pass.Fset.Position(exit).Line
		w.pass.Reportf(ob.pos, "%s is not %s on the path leaving the function at line %d",
			ob.desc, w.spec.dischargeVerb(), line)
	}
}

func (s *obligationSpec) dischargeVerb() string {
	if s.argEscapes {
		return "awaited or handed off"
	}
	return "released or handed off"
}

// block interprets a statement list; reports and returns true if every path
// through it terminates (return/panic/branch).
func (w *obWalker) block(stmts []ast.Stmt, st *obState) bool {
	for _, s := range stmts {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt interprets one statement, returning whether it terminates the path.
func (w *obWalker) stmt(s ast.Stmt, st *obState) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.block(s.List, st)
	case *ast.ExprStmt:
		if w.isTerminatorCall(s.X) {
			return true
		}
		// A bare acquiring call discards its result — the obligation can
		// never be discharged.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if desc, isAcq := w.spec.acquire(w.info(), call); isAcq {
				w.pass.Reportf(call.Pos(), "%s is discarded; it must be %s", desc, w.spec.dischargeVerb())
			}
		}
		w.scanExpr(s.X, st)
		return false
	case *ast.AssignStmt:
		w.assign(s, st)
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.valueSpec(vs, st)
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.escapeVarsIn(r, st) // returning the resource transfers ownership
		}
		w.checkExit(st, s.Pos())
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		thenSt, elseSt := st.clone(), st.clone()
		w.applyGuard(s.Cond, thenSt, elseSt)
		w.scanExpr(s.Cond, st)
		thenTerm := w.stmt(s.Body, thenSt)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		st.live = make(map[*types.Var]*obligation)
		if !thenTerm {
			st.mergeFrom(thenSt)
		}
		if !elseTerm {
			st.mergeFrom(elseSt)
		}
		return thenTerm && elseTerm
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, st)
		}
		body := st.clone()
		w.stmt(s.Body, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		st.mergeFrom(body)
		return false
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		body := st.clone()
		w.stmt(s.Body, body)
		st.mergeFrom(body)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.switchLike(s, st)
	case *ast.SendStmt:
		w.escapeVarsIn(s.Value, st)
		return false
	case *ast.GoStmt:
		w.escapeCall(s.Call, st)
		return false
	case *ast.DeferStmt:
		// A deferred release/wait discharges on every path from here on.
		if w.dischargeCall(s.Call, st) {
			return false
		}
		w.escapeCall(s.Call, st)
		return false
	case *ast.IncDecStmt:
		return false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this structured region; treated as path
		// end without an exit check (conservatively lenient).
		return true
	default:
		return false
	}
}

// switchLike forks the state per clause and merges the non-terminated arms.
func (w *obWalker) switchLike(s ast.Stmt, st *obState) bool {
	var init ast.Stmt
	var tag ast.Expr
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, tag, body = s.Init, s.Tag, s.Body
	case *ast.TypeSwitchStmt:
		init, body = s.Init, s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	if init != nil {
		w.stmt(init, st)
	}
	if tag != nil {
		w.scanExpr(tag, st)
	}
	entry := st.clone()
	merged := newObState()
	allTerm := true
	for _, c := range body.List {
		cs := entry.clone()
		var term bool
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				w.scanExpr(e, cs)
			}
			term = w.block(c.Body, cs)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(c.Comm, cs)
			}
			term = w.block(c.Body, cs)
		}
		if !term {
			merged.mergeFrom(cs)
			allTerm = false
		}
	}
	st.live = merged.live
	if _, isSelect := s.(*ast.SelectStmt); isSelect {
		hasDefault = true // a default-less select blocks; no fallthrough path
	}
	if !hasDefault {
		st.mergeFrom(entry)
		allTerm = false
	}
	return allTerm && hasDefault
}

// valueSpec handles `var x = acquire()` declarations.
func (w *obWalker) valueSpec(vs *ast.ValueSpec, st *obState) {
	for i, val := range vs.Values {
		w.scanExpr(val, st)
		if call, ok := ast.Unparen(val).(*ast.CallExpr); ok && i < len(vs.Names) {
			w.maybeAcquire(vs.Names[i], call, st)
		}
	}
}

// assign handles acquires, releases-by-overwrite and escapes in one
// assignment statement.
func (w *obWalker) assign(s *ast.AssignStmt, st *obState) {
	// Single call on the RHS: the acquire form `x := f()`.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			w.scanExpr(call, st)
			if len(s.Lhs) >= 1 {
				if id, okL := s.Lhs[0].(*ast.Ident); okL {
					w.maybeAcquire(id, call, st)
				}
			}
			w.lhsEscapes(s.Lhs, st)
			return
		}
	}
	for _, r := range s.Rhs {
		w.scanExpr(r, st)
		// Assigning a tracked variable to anything transfers ownership —
		// unless it is a self-reslice (x = x[:n]), which keeps tracking.
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Rhs {
				if base := trackedBase(w.info(), s.Rhs[i], st); base != nil {
					if lhsID, ok := s.Lhs[i].(*ast.Ident); ok {
						if obj, _ := w.info().Uses[lhsID].(*types.Var); obj != nil && obj == base.v {
							continue // self-reslice
						}
					}
					delete(st.live, base.v)
				}
			}
		}
	}
	w.lhsEscapes(s.Lhs, st)
}

// lhsEscapes handles tracked variables used inside LHS index expressions
// (rare) — nothing to do for plain identifiers.
func (w *obWalker) lhsEscapes(lhs []ast.Expr, st *obState) {
	for _, l := range lhs {
		if ix, ok := l.(*ast.IndexExpr); ok {
			w.escapeVarsIn(ix.Index, st)
		}
	}
}

// maybeAcquire records an obligation if call matches the spec's acquire
// pattern. Overwriting a still-live obligation is itself a leak.
func (w *obWalker) maybeAcquire(id *ast.Ident, call *ast.CallExpr, st *obState) {
	desc, ok := w.spec.acquire(w.info(), call)
	if !ok {
		return
	}
	if id.Name == "_" {
		// Explicitly discarding the resource drops the obligation on the
		// floor; a deliberate drop needs a //zinf:allow with a reason.
		w.pass.Reportf(call.Pos(), "%s is discarded via _; it must be %s", desc, w.spec.dischargeVerb())
		return
	}
	var v *types.Var
	if obj := w.info().Defs[id]; obj != nil {
		v, _ = obj.(*types.Var)
	} else if obj := w.info().Uses[id]; obj != nil {
		v, _ = obj.(*types.Var)
	}
	if v == nil {
		return // non-variable target
	}
	if prev, live := st.live[v]; live && !prev.reported {
		prev.reported = true
		w.pass.Reportf(prev.pos, "%s is overwritten at line %d before being %s",
			prev.desc, w.pass.Fset.Position(call.Pos()).Line, w.spec.dischargeVerb())
	}
	st.live[v] = &obligation{v: v, pos: call.Pos(), desc: desc}
}

// applyGuard interprets `if x == nil` and `if x != nil` conditions against
// tracked obligations: the arm in which the resource is nil holds no
// obligation.
func (w *obWalker) applyGuard(cond ast.Expr, thenSt, elseSt *obState) {
	if b, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
		x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
		if isNilIdent(w.info(), y) {
			w.applyNilGuard(x, b.Op, thenSt, elseSt)
		} else if isNilIdent(w.info(), x) {
			w.applyNilGuard(y, b.Op, thenSt, elseSt)
		}
	}
}

// applyNilGuard: `x == nil` (EQL) ⇒ then-arm dead; `x != nil` ⇒ else-arm dead.
func (w *obWalker) applyNilGuard(x ast.Expr, op token.Token, thenSt, elseSt *obState) {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return
	}
	v, _ := w.info().Uses[id].(*types.Var)
	if v == nil {
		return
	}
	if op == token.EQL {
		delete(thenSt.live, v)
	} else {
		delete(elseSt.live, v)
	}
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// scanExpr interprets discharges and escapes inside an expression tree.
func (w *obWalker) scanExpr(e ast.Expr, st *obState) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if w.dischargeCall(e, st) {
			return
		}
		w.scanExpr(e.Fun, st)
		for _, a := range e.Args {
			if base := trackedBase(w.info(), a, st); base != nil {
				if w.spec.argEscapes || w.sinkCall(e) {
					delete(st.live, base.v)
				}
				continue // otherwise: a borrow — callee does not own it
			}
			// Nested uses (composite literals in args, etc.) escape.
			w.escapeVarsIn(a, st)
		}
	case *ast.FuncLit:
		// Closure capture transfers responsibility to the closure.
		w.escapeVarsIn(e.Body, st)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			w.escapeVarsIn(e.X, st)
			return
		}
		w.scanExpr(e.X, st)
	case *ast.CompositeLit:
		w.escapeVarsIn(e, st)
	case *ast.ParenExpr:
		w.scanExpr(e.X, st)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, st)
		w.scanExpr(e.Y, st)
	case *ast.IndexExpr:
		w.scanExpr(e.X, st)
		w.scanExpr(e.Index, st)
	case *ast.SliceExpr:
		w.scanExpr(e.X, st)
	case *ast.SelectorExpr:
		w.scanExpr(e.X, st)
	case *ast.StarExpr:
		w.scanExpr(e.X, st)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, st)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, st)
	}
}

// dischargeCall recognizes release calls (Release/Put with a tracked
// argument) and wait calls (tracked.Wait()) and removes the obligation.
func (w *obWalker) dischargeCall(call *ast.CallExpr, st *obState) bool {
	if w.spec.release != nil && w.spec.release(w.info(), call) {
		for _, a := range call.Args {
			if base := trackedBase(w.info(), a, st); base != nil {
				delete(st.live, base.v)
			}
		}
		return true
	}
	if w.spec.wait != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && w.spec.wait(w.info(), sel) {
			if base := trackedBase(w.info(), sel.X, st); base != nil {
				delete(st.live, base.v)
				return true
			}
		}
	}
	return false
}

// sinkCall reports whether call's callee is a configured ownership sink.
func (w *obWalker) sinkCall(call *ast.CallExpr) bool {
	if len(w.spec.sink) == 0 {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return w.spec.sink[fun.Name]
	case *ast.SelectorExpr:
		return w.spec.sink[fun.Sel.Name]
	}
	return false
}

// escapeCall discharges tracked variables referenced anywhere in a call
// launched on another goroutine or deferred.
func (w *obWalker) escapeCall(call *ast.CallExpr, st *obState) {
	w.escapeVarsIn(call, st)
}

// escapeVarsIn removes every tracked variable referenced inside n: the
// resource has been stored, captured or published, so ownership has moved.
func (w *obWalker) escapeVarsIn(n ast.Node, st *obState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		id, ok := nn.(*ast.Ident)
		if !ok {
			return true
		}
		if v, _ := w.info().Uses[id].(*types.Var); v != nil {
			delete(st.live, v)
		}
		return true
	})
}

// trackedBase resolves e (possibly parenthesized or sliced, e.g. buf[:n])
// to a tracked obligation variable.
func trackedBase(info *types.Info, e ast.Expr, st *obState) *obligation {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if v, _ := info.Uses[x].(*types.Var); v != nil {
				if ob, ok := st.live[v]; ok {
					return ob
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// isTerminatorCall reports whether e is a call that never returns:
// panic(...), os.Exit, log.Fatal*.
func (w *obWalker) isTerminatorCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			_, isBuiltin := w.info().Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		if fn, _ := w.info().Uses[fun.Sel].(*types.Func); fn != nil && fn.Pkg() != nil {
			full := fn.Pkg().Path() + "." + fn.Name()
			switch full {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return true
			}
		}
	}
	return false
}

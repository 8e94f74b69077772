package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the steady-state zero-allocation invariant
// (TestSteadyStateZeroAllocs, PR 4) statically: a function whose doc comment
// carries //zinf:hotpath may not contain allocation-introducing constructs.
//
// Flagged inside hotpath functions:
//   - make / new / pointer-taking composite literals (&T{...}) — draw the
//     buffer from a mem.Arena instead;
//   - append that grows a fresh slice (x = append(y, ...) with x != y); the
//     self-append idioms x = append(x, ...) and x = append(x[:k], ...) are
//     amortized allocation-free against a retained backing array and are
//     permitted;
//   - map writes (fresh keys allocate overflow buckets; recycled-key writes
//     need a //zinf:allow with that reason);
//   - closures that capture variables, and go statements. A capturing
//     closure passed directly to a local //zinf:hotpath function whose
//     corresponding parameter is only ever called (never stored or
//     re-passed) is exempt — Go's escape analysis keeps such closures on
//     the stack — and its body is checked as part of the enclosing hot
//     path. APIs that retain func values (worker pools) should take a
//     pooled ctx plus a top-level func instead, as Pool.ParallelForCtx
//     does;
//   - calls into fmt/log/errors and the allocating strings/strconv/sort
//     helpers — except inside panic(...) arguments, which only run while
//     the process is dying;
//   - boxing a non-pointer value into an interface (flat payloads must stay
//     flat — the PR 4 []any-payload bug class);
//   - non-constant string concatenation and string<->[]byte conversions.
//
// The mark is transitive through direct calls: a hotpath function may only
// statically call local functions that are themselves //zinf:hotpath, so an
// unannotated helper cannot silently reintroduce allocations. Interface
// method calls (e.g. tensor.Backend kernels) dispatch dynamically and are
// exempt from the transitivity rule; the kernel implementations carry their
// own marks.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid allocation-introducing constructs in //zinf:hotpath functions",
	Run:  runHotPathAlloc,
}

// allocPkgs are packages whose exported call surface allocates as a matter
// of course.
var allocPkgs = map[string]bool{"fmt": true, "log": true, "errors": true}

// allocFuncs are specific allocating stdlib helpers outside allocPkgs.
var allocFuncs = map[string]bool{
	"strings.Repeat": true, "strings.Join": true, "strings.Split": true,
	"strings.Fields": true, "strings.Replace": true, "strings.ReplaceAll": true,
	"strings.ToUpper": true, "strings.ToLower": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatFloat": true,
	"strconv.Quote": true, "strconv.AppendQuote": true,
	"sort.Slice": true, "sort.SliceStable": true,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Index.HotPath[fn.Origin()] {
				continue
			}
			hp := &hotPathWalker{pass: pass, fn: fn, sig: fn.Type().(*types.Signature)}
			hp.selfAppends(fd.Body)
			hp.stmt(fd.Body)
		}
	}
	return nil
}

type hotPathWalker struct {
	pass *Pass
	fn   *types.Func
	// sig is the signature return statements resolve against — the enclosing
	// function's, or a borrowed closure's while walking its body.
	sig *types.Signature
	// okAppend holds append calls in the self-append idiom.
	okAppend map[*ast.CallExpr]bool
	// panicDepth > 0 while walking the arguments of panic(...): allocation
	// on the crash path is acceptable.
	panicDepth int
}

func (w *hotPathWalker) info() *types.Info { return w.pass.TypesInfo }

// selfAppends prescans body for `x = append(x, ...)` / `x := append(x, ...)`
// where the first append argument is syntactically the assignment target.
func (w *hotPathWalker) selfAppends(body *ast.BlockStmt) {
	w.okAppend = make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !w.isBuiltin(call, "append") {
				continue
			}
			arg0 := ast.Unparen(call.Args[0])
			// x = append(x[:k], ...) reslices the same retained backing
			// array; unwrap the slice expression before comparing.
			if sl, ok := arg0.(*ast.SliceExpr); ok {
				arg0 = ast.Unparen(sl.X)
			}
			if types.ExprString(ast.Unparen(as.Lhs[i])) == types.ExprString(arg0) {
				w.okAppend[call] = true
			}
		}
		return true
	})
}

func (w *hotPathWalker) report(pos token.Pos, format string, args ...any) {
	if w.panicDepth > 0 {
		return // crash path: the process is going down anyway
	}
	w.pass.Reportf(pos, format, args...)
}

// isBuiltin reports whether call invokes the named builtin.
func (w *hotPathWalker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = w.info().Uses[id].(*types.Builtin)
	return ok
}

// staticCallee resolves call to a statically known function or method, or
// nil for builtins, conversions, interface dispatch and function values.
func (w *hotPathWalker) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := w.info().Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := w.info().Selections[fun]; ok {
			// Method call: exempt interface dispatch.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified function.
		fn, _ := w.info().Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stmt walks statements; expressions route through expr.
func (w *hotPathWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.checkMapWrite(s)
		for i, rhs := range s.Rhs {
			w.expr(rhs)
			if len(s.Lhs) == len(s.Rhs) && s.Tok == token.ASSIGN {
				if t := w.info().TypeOf(s.Lhs[i]); t != nil {
					w.checkBoxing(rhs, t)
				}
			}
		}
		for _, lhs := range s.Lhs {
			w.expr(lhs)
		}
		if s.Tok == token.ADD_ASSIGN {
			// s += x on strings concatenates.
			if t := w.info().TypeOf(s.Lhs[0]); t != nil && isString(t) {
				w.report(s.Pos(), "string concatenation allocates in a hotpath function")
			}
		}
	case *ast.DeclStmt:
		gd, _ := s.Decl.(*ast.GenDecl)
		if gd == nil {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var declared types.Type
			if vs.Type != nil {
				declared = w.info().TypeOf(vs.Type)
			}
			for _, v := range vs.Values {
				w.expr(v)
				if declared != nil {
					w.checkBoxing(v, declared)
				}
			}
		}
	case *ast.ReturnStmt:
		res := w.sig.Results()
		for i, e := range s.Results {
			w.expr(e)
			if len(s.Results) == res.Len() {
				w.checkBoxing(e, res.At(i).Type())
			}
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		if ch, ok := w.info().TypeOf(s.Chan).Underlying().(*types.Chan); ok {
			w.checkBoxing(s.Value, ch.Elem())
		}
	case *ast.GoStmt:
		w.report(s.Pos(), "go statement allocates a goroutine in a hotpath function")
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.IncDecStmt:
		w.checkMapIndexWrite(s.X, s.Pos())
		w.expr(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *hotPathWalker) checkMapWrite(s *ast.AssignStmt) {
	for _, lhs := range s.Lhs {
		w.checkMapIndexWrite(lhs, lhs.Pos())
	}
}

func (w *hotPathWalker) checkMapIndexWrite(e ast.Expr, pos token.Pos) {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := w.info().TypeOf(ix.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			w.report(pos, "map write in a hotpath function (fresh keys allocate overflow buckets)")
		}
	}
}

// expr walks an expression tree.
func (w *hotPathWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		if caps := w.captures(e); len(caps) > 0 {
			w.report(e.Pos(), "closure captures %s in a hotpath function (may heap-allocate if it escapes); pass it to a hotpath helper that only calls it, or use a pooled ctx with a top-level func", caps[0])
		}
		// Do not descend: the literal's body runs in its own context and is
		// checked only when the closure is borrowed by a hotpath callee
		// (see call) or the enclosing function marks a named helper instead.
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.report(e.Pos(), "&composite literal allocates in a hotpath function")
			}
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t := w.info().TypeOf(e); t != nil && isString(t) {
				if tv, ok := w.info().Types[e]; !ok || tv.Value == nil { // non-constant concat
					w.report(e.Pos(), "string concatenation allocates in a hotpath function")
				}
			}
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
			} else {
				w.expr(el)
			}
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	}
}

// call checks one call expression (and walks its arguments).
func (w *hotPathWalker) call(call *ast.CallExpr) {
	// Type conversion?
	if tv, ok := w.info().Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := w.info().TypeOf(call.Args[0])
		if from != nil && (isString(to) && !isString(from) || isString(from) && !isString(to)) {
			w.report(call.Pos(), "string conversion allocates in a hotpath function")
		}
		w.expr(call.Args[0])
		return
	}

	switch {
	case w.isBuiltin(call, "make"):
		w.report(call.Pos(), "make allocates in a hotpath function; draw from a mem.Arena or reuse a retained buffer")
	case w.isBuiltin(call, "new"):
		w.report(call.Pos(), "new allocates in a hotpath function")
	case w.isBuiltin(call, "append"):
		if !w.okAppend[call] {
			w.report(call.Pos(), "append into a fresh slice allocates in a hotpath function (only the self-append idiom x = append(x, ...) is amortized-free)")
		}
	case w.isBuiltin(call, "panic"):
		w.panicDepth++
		for _, a := range call.Args {
			w.expr(a)
		}
		w.panicDepth--
		return
	default:
		if fn := w.staticCallee(call); fn != nil {
			w.checkCallee(call, fn)
		}
	}

	// Closures handed to a local hotpath callee that only calls them are
	// borrowed, not escaping: check their bodies as part of this hot path
	// instead of flagging the capture.
	borrowed := w.borrowedArgs(call)

	// Arguments: boxing against the signature, then recurse.
	if sig, ok := typeAsSignature(w.info().TypeOf(call.Fun)); ok && !w.isBuiltin(call, "append") {
		for i, a := range call.Args {
			if pt, ok := paramType(sig, i, call.Ellipsis.IsValid()); ok {
				w.checkBoxing(a, pt)
			}
		}
	}
	for _, a := range call.Args {
		if lit, ok := borrowed[a]; ok {
			w.funcLitBody(lit)
			continue
		}
		w.expr(a)
	}
}

// borrowedArgs maps the FuncLit arguments of call that its callee — a local
// //zinf:hotpath function — provably only calls (the parameter never appears
// outside call position, so the closure does not escape and Go stack-
// allocates it).
func (w *hotPathWalker) borrowedArgs(call *ast.CallExpr) map[ast.Expr]*ast.FuncLit {
	fn := w.staticCallee(call)
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if !w.pass.Index.Local(fn.Pkg()) || !w.pass.Index.HotPath[fn] {
		return nil
	}
	var out map[ast.Expr]*ast.FuncLit
	for i, a := range call.Args {
		lit, ok := ast.Unparen(a).(*ast.FuncLit)
		if !ok || !w.paramOnlyCalled(fn, i) {
			continue
		}
		if out == nil {
			out = make(map[ast.Expr]*ast.FuncLit)
		}
		out[a] = lit
	}
	return out
}

// funcLitBody walks a borrowed closure's body under the literal's own
// signature.
func (w *hotPathWalker) funcLitBody(lit *ast.FuncLit) {
	sig, ok := typeAsSignature(w.info().TypeOf(lit))
	if !ok {
		return
	}
	outer := w.sig
	w.sig = sig
	w.stmt(lit.Body)
	w.sig = outer
}

// paramOnlyCalled reports whether parameter argIdx of the local function fn
// appears only in call position throughout fn's body (or not at all). A
// variadic parameter is never "only called" — the spread itself allocates.
func (w *hotPathWalker) paramOnlyCalled(fn *types.Func, argIdx int) bool {
	ix := w.pass.Index
	decl := ix.Decl[fn]
	if decl == nil || decl.Body == nil || fn.Pkg() == nil {
		return false
	}
	p := ix.Packages[fn.Pkg().Path()]
	if p == nil {
		return false
	}
	info := p.Info
	var name *ast.Ident
	idx := 0
	for _, field := range decl.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			if idx == argIdx {
				if _, variadic := field.Type.(*ast.Ellipsis); variadic {
					return false
				}
				if len(field.Names) == 0 {
					return true // unnamed: the callee drops it
				}
				name = field.Names[j]
			}
			idx++
		}
	}
	if name == nil {
		return false // beyond the parameter list (variadic overflow)
	}
	obj := info.Defs[name]
	if obj == nil {
		return false
	}
	inCallPos := make(map[*ast.Ident]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				inCallPos[id] = true
			}
		}
		return true
	})
	onlyCalled := true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && info.Uses[id] == obj && !inCallPos[id] {
			onlyCalled = false
		}
		return true
	})
	return onlyCalled
}

// checkCallee applies the stdlib denylist and the hotpath transitivity rule.
func (w *hotPathWalker) checkCallee(call *ast.CallExpr, fn *types.Func) {
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	if allocPkgs[pkg.Path()] {
		w.report(call.Pos(), "call to %s.%s allocates in a hotpath function", pkg.Name(), fn.Name())
		return
	}
	if allocFuncs[pkg.Path()+"."+fn.Name()] {
		w.report(call.Pos(), "call to %s.%s allocates in a hotpath function", pkg.Name(), fn.Name())
		return
	}
	if w.pass.Index.Local(pkg) && !w.pass.Index.HotPath[fn] {
		w.report(call.Pos(), "hotpath function calls %s.%s, which is not marked //zinf:hotpath (the zero-alloc contract is transitive)", pkg.Name(), fn.Name())
	}
}

// checkBoxing reports implicit interface conversions of non-pointer-shaped
// concrete values (they heap-allocate the boxed copy).
func (w *hotPathWalker) checkBoxing(e ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := w.info().Types[e]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if types.IsInterface(src) {
		return // interface-to-interface: no box
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if pointerShaped(src) {
		return // pointers fit the interface data word without allocating
	}
	w.report(e.Pos(), "boxing %s into %s allocates in a hotpath function (keep payloads flat)", types.TypeString(src, types.RelativeTo(w.pass.Pkg)), types.TypeString(target, types.RelativeTo(w.pass.Pkg)))
}

// pointerShaped reports whether boxing a value of t into an interface is
// allocation-free: pointer-shaped values live in the interface data word,
// and zero-size values (empty structs like the reference backend) share the
// runtime's zerobase.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 0
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// paramType returns the declared type of argument i of sig, accounting for
// variadics; ok is false when boxing should not be checked (e.g. a ...any
// spread, or mismatched arity from multi-value calls).
func paramType(sig *types.Signature, i int, ellipsis bool) (types.Type, bool) {
	n := sig.Params().Len()
	if sig.Variadic() {
		if i < n-1 {
			return sig.Params().At(i).Type(), true
		}
		if ellipsis {
			return sig.Params().At(n - 1).Type(), true
		}
		s, ok := sig.Params().At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil, false
		}
		return s.Elem(), true
	}
	if i >= n {
		return nil, false
	}
	return sig.Params().At(i).Type(), true
}

// captures returns the names of enclosing-function variables referenced
// inside lit (variables declared outside the literal but not at package
// scope).
func (w *hotPathWalker) captures(lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := w.info().Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pkg() == nil || obj.Parent() == nil {
			return true
		}
		// Package-level vars aren't captures.
		if obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		// Declared inside the literal itself (params, locals)?
		if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
			return true
		}
		seen[obj] = true
		out = append(out, obj.Name())
		return true
	})
	return out
}

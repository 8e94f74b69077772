package analysis

import (
	"go/ast"
	"go/types"
)

// PinnedLeak verifies that every mem.Arena acquisition and checkpoint
// staging buffer is discharged on every path out of the acquiring function
// — released back to its arena, or explicitly handed off (returned, stored
// into an in-flight record, captured by a reaper goroutine). The historical
// pinned-buffer leak — an error return between acquire and release — is
// exactly the shape this catches: a locally held buffer reaching an error
// return unreleased. The NVMe tier's staging ring holds its pinned buffers
// for the engine's lifetime and is not checked here; its runtime check is
// the tests' assertRingIdle.
//
// Ownership hand-off points that are part of the engine design are known to
// the analyzer (pinnedSinks); anything else needs a //zinf:allow pinnedleak
// comment with a reason.
var PinnedLeak = &Analyzer{
	Name: "pinnedleak",
	Doc:  "mem.Arena and checkpoint staging acquires must be released on all paths, including error returns",
	Run: func(pass *Pass) error {
		return runObligations(pass, pinnedSpec)
	},
}

// pinnedSinks are repo functions that take ownership of a buffer argument:
// Param.SetData adopts an arena-backed gathered view (releaseParam returns
// it), the engines' foldGradShard adopts or recycles a reduced shard, and
// the checkpoint writer's Submit adopts a staging buffer (the background
// commit recycles it).
var pinnedSinks = map[string]bool{
	"SetData":       true,
	"foldGradShard": true,
	"Submit":        true,
}

var pinnedSpec = &obligationSpec{
	noun: "pinned/arena buffer",
	acquire: func(info *types.Info, call *ast.CallExpr) (string, bool) {
		fn := calledMethod(info, call)
		if fn == nil || fn.Pkg() == nil {
			return "", false
		}
		recv := recvTypeName(fn)
		switch fn.Pkg().Name() {
		case "mem":
			if recv == "Arena" && (fn.Name() == "Get" || fn.Name() == "GetZeroed") {
				return "arena buffer from Arena." + fn.Name(), true
			}
		case "ckpt":
			// The checkpoint writer's arena-backed staging buffers follow
			// the same ownership discipline: every Stage must reach a
			// Submit (ownership transfer) or a Recycle (error path).
			if recv == "Writer" && fn.Name() == "Stage" {
				return "staging buffer from Writer.Stage", true
			}
		}
		return "", false
	},
	release: func(info *types.Info, call *ast.CallExpr) bool {
		fn := calledMethod(info, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		recv := recvTypeName(fn)
		switch fn.Pkg().Name() {
		case "mem":
			return recv == "Arena" && fn.Name() == "Put"
		case "ckpt":
			return recv == "Writer" && fn.Name() == "Recycle"
		}
		return false
	},
	sink: pinnedSinks,
}

// calledMethod resolves a call to the *types.Func of a concrete method or
// package function, or nil.
func calledMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		fn, _ := s.Obj().(*types.Func)
		if fn != nil {
			return fn.Origin()
		}
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn != nil {
		return fn.Origin()
	}
	return nil
}

// recvTypeName returns the receiver's named-type name ("" for functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

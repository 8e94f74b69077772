package analysis

import (
	"go/ast"
	"go/types"
)

// TicketAwait verifies that every asynchronous collective, NVMe or
// checkpoint-commit ticket — a comm.Ticket, *nvme.Ticket or *ckpt.Ticket
// returned by the *Async collectives, ReadRegion/WriteRegion, the
// checkpoint writer's Submit and friends — reaches a Wait, or is handed off
// into the machinery that will wait for it (a pending-reduction record, an
// in-flight struct, a deferred reaper) before the issuing function exits.
// The PR 2 drain-barrier bug class — an async reduce-scatter whose ticket
// never reaches the drain before the overflow check — and dropped NVMe
// write errors both reduce to a locally held ticket leaking out of scope.
var TicketAwait = &Analyzer{
	Name: "ticketawait",
	Doc:  "async collective/NVMe tickets must be awaited or handed off before function exit",
	Run: func(pass *Pass) error {
		return runObligations(pass, ticketSpec)
	},
}

var ticketSpec = &obligationSpec{
	noun: "async ticket",
	acquire: func(info *types.Info, call *ast.CallExpr) (string, bool) {
		t := info.TypeOf(call)
		if t == nil {
			return "", false
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "Ticket" || named.Obj().Pkg() == nil {
			return "", false
		}
		switch named.Obj().Pkg().Name() {
		case "comm", "nvme", "ckpt":
			name := "async ticket"
			if fn := calledMethod(info, call); fn != nil {
				name = "ticket from " + fn.Name()
			}
			return name, true
		}
		return "", false
	},
	wait: func(info *types.Info, sel *ast.SelectorExpr) bool {
		return sel.Sel.Name == "Wait"
	},
	// A ticket passed whole to any function (a drain helper, a reaper)
	// is a hand-off: tickets are one-word records whose Wait the callee now
	// owns. Buffers, by contrast, are borrowed by callees — see pinnedleak.
	argEscapes: true,
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwner enforces the consumer-frees ownership discipline of the
// control-plane pools (internal/core/wire.go): a value taken from
// newSpawn/newPath/newBatch or names.Arena.Alloc has exactly one owner,
// ownership transfers when the value rides a Packet (Payload field,
// sendFIR, injectBatch), and the final owner frees it exactly once.
//
// The analysis is an abstract interpretation over each function body
// tracking local variables bound to pool allocations, and parameters the
// function's own summary says it frees, through a three-state lattice
// (live / freed / transferred).  Branches fork the state and merge
// conservatively (a variable freed on only one path is forgotten, not
// flagged; a branch that returns does not merge), loops are analyzed for
// one iteration, and any escape — into a struct, closure, channel, or
// return — ends tracking.
//
// Function boundaries are crossed through summaries (summary.go): every
// function's effect on its pooled parameters (frees, transfers to the
// network, escapes) and its result (fresh allocation, parameter alias)
// is computed bottom-up and applied at call sites, so a helper that
// frees its argument triggers use-after-free reports in its callers —
// one level or many, since summaries fold transitively.  Summaries cross
// packages as JSON facts.  This keeps the near-zero false-positive rate:
// a helper with no provable effect leaves the caller's state exactly as
// the intra-procedural analysis did.
var PoolOwner = &Analyzer{
	Name: "poolowner",
	Doc:  "flag use-after-free, double-free, and use-after-transfer of pooled control-plane values",
	Run:  runPoolOwner,
}

// Allocation and free entry points, matched by name (and receiver type
// name for Arena) so the analyzer covers both the kernel and fixtures.
var (
	poAllocKinds = map[string]string{
		"newSpawn": "spawn record",
		"newPath":  "FIR path",
		"newBatch": "batch buffer",
	}
	poFreeKinds = map[string]string{
		"freeSpawn": "spawn record",
		"freePath":  "FIR path",
		"freeBatch": "batch buffer",
	}
	// poTransferFuncs consume an argument: ownership moves to the packet
	// in flight.
	poTransferFuncs = map[string]bool{
		"sendFIR":     true,
		"injectBatch": true,
	}
)

const (
	poLive = iota
	poFreed
	poTransferred
)

// poGroup is the abstract state of one allocation; several variables may
// alias it (seq and ld from one Arena.Alloc).
type poGroup struct {
	kind  string
	state int
	event token.Pos // where it was freed or transferred
}

type poEnv map[types.Object]*poGroup

func copyEnv(env poEnv) poEnv {
	out := make(poEnv, len(env))
	clones := map[*poGroup]*poGroup{}
	for k, g := range env {
		c, ok := clones[g]
		if !ok {
			cc := *g
			c = &cc
			clones[g] = c
		}
		out[k] = c
	}
	return out
}

// mergeEnv keeps only variables whose group state agrees on both paths.
func mergeEnv(a, b poEnv) poEnv {
	out := make(poEnv)
	for k, ga := range a {
		if gb, ok := b[k]; ok && ga.kind == gb.kind && ga.state == gb.state {
			out[k] = ga
		}
	}
	return out
}

type poWalker struct {
	pass     *Pass
	deferred []struct {
		pos token.Pos
		obj types.Object
	}
	// pending holds Packet{Payload: x} transfers observed inside the
	// statement being walked.  They apply when the statement ends: the
	// packet is only in flight once the enclosing send call returns, so
	// sibling reads in the same statement (args evaluated after the
	// literal) are legal.
	pending []struct {
		pos token.Pos
		obj types.Object
	}
	// tokens marks integer-typed aliases of an allocation — the seq handle
	// from names.Arena.Alloc.  Seq handles are generation-checked by the
	// arena (Get and Free on a stale seq are safe no-ops), so reading one
	// after Free is not a use-after-free; only the descriptor pointer is.
	// Double-free is still reported: it is group state, not a token read.
	tokens map[types.Object]bool
	// sums resolves callee summaries for interprocedural effects.
	sums *poSummarizer
}

func runPoolOwner(pass *Pass) error {
	sums := newPoSummarizer(pass)
	if ex := sums.exportable(); len(ex) > 0 {
		if err := pass.ExportFacts(poFacts{Summaries: ex}); err != nil {
			return err
		}
	}
	if pass.FactsOnly {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			env := make(poEnv)
			switch x := n.(type) {
			case *ast.FuncDecl:
				body = x.Body
				if fn, ok := pass.TypesInfo.Defs[x.Name].(*types.Func); ok && body != nil {
					for obj, kind := range sums.ownedParams(fn, x) {
						env[obj] = &poGroup{kind: kind, state: poLive}
					}
				}
			case *ast.FuncLit:
				body = x.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := &poWalker{pass: pass, tokens: map[types.Object]bool{}, sums: sums}
			w.walkStmts(body.List, env)
			// Deferred frees run at function exit, after everything above.
			for _, d := range w.deferred {
				if g, ok := env[d.obj]; ok {
					w.consume(env, d.obj, d.pos, g.kind)
				}
			}
			return true // keep descending: nested literals get their own walk
		})
	}
	return nil
}

func (w *poWalker) walkStmts(list []ast.Stmt, env poEnv) {
	for _, st := range list {
		w.walkStmt(st, env)
		w.applyPending(env)
	}
}

// applyPending commits end-of-statement ownership transfers.
func (w *poWalker) applyPending(env poEnv) {
	for _, p := range w.pending {
		if g := env[p.obj]; g != nil && g.state == poLive {
			g.state = poTransferred
			g.event = p.pos
		}
	}
	w.pending = w.pending[:0]
}

func (w *poWalker) walkStmt(st ast.Stmt, env poEnv) {
	switch x := st.(type) {
	case *ast.AssignStmt:
		w.walkAssign(x, env)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, env)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			w.walkCall(call, env, false)
		} else {
			w.checkExpr(x.X, env)
		}
	case *ast.DeferStmt:
		w.walkCall(x.Call, env, true)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.checkExpr(r, env)
			w.untrackExpr(r, env) // ownership moves to the caller
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, env)
		}
		w.checkExpr(x.Cond, env)
		thenEnv := copyEnv(env)
		w.walkStmts(x.Body.List, thenEnv)
		elseEnv := copyEnv(env)
		if x.Else != nil {
			w.walkStmt(x.Else, elseEnv)
		}
		// A branch that returns never reaches the code after the if, so
		// the other branch's state flows on alone.
		switch thenRet, elseRet := returns(x.Body), x.Else != nil && returns(x.Else); {
		case thenRet && !elseRet:
			replaceEnv(env, elseEnv)
		case elseRet && !thenRet:
			replaceEnv(env, thenEnv)
		default:
			replaceEnv(env, mergeEnv(thenEnv, elseEnv))
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, env)
		}
		if x.Cond != nil {
			w.checkExpr(x.Cond, env)
		}
		bodyEnv := copyEnv(env)
		w.walkStmts(x.Body.List, bodyEnv)
		if x.Post != nil {
			w.walkStmt(x.Post, bodyEnv)
		}
		replaceEnv(env, mergeEnv(env, bodyEnv))
	case *ast.RangeStmt:
		w.checkExpr(x.X, env)
		bodyEnv := copyEnv(env)
		w.walkStmts(x.Body.List, bodyEnv)
		replaceEnv(env, mergeEnv(env, bodyEnv))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkClauses(st, env)
	case *ast.BlockStmt:
		w.walkStmts(x.List, env)
	case *ast.GoStmt:
		// Arguments are evaluated here; the spawned goroutine's uses are
		// another timeline, so anything it captures stops being tracked.
		for _, a := range x.Call.Args {
			w.checkExpr(a, env)
		}
		w.untrackExpr(x.Call, env)
	case *ast.SendStmt:
		w.checkExpr(x.Value, env)
		w.untrackExpr(x.Value, env) // ownership crosses the channel
		w.checkExpr(x.Chan, env)
	case *ast.IncDecStmt:
		w.checkExpr(x.X, env)
	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, env)
	}
}

func (w *poWalker) walkClauses(st ast.Stmt, env poEnv) {
	var clauses []ast.Stmt
	switch x := st.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, env)
		}
		if x.Tag != nil {
			w.checkExpr(x.Tag, env)
		}
		clauses = x.Body.List
	case *ast.TypeSwitchStmt:
		clauses = x.Body.List
	case *ast.SelectStmt:
		clauses = x.Body.List
	}
	merged := poEnv(nil)
	for _, cl := range clauses {
		clEnv := copyEnv(env)
		switch c := cl.(type) {
		case *ast.CaseClause:
			w.walkStmts(c.Body, clEnv)
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, clEnv)
			}
			w.walkStmts(c.Body, clEnv)
		}
		if merged == nil {
			merged = clEnv
		} else {
			merged = mergeEnv(merged, clEnv)
		}
	}
	if merged != nil {
		replaceEnv(env, mergeEnv(env, merged))
	}
}

func replaceEnv(dst, src poEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// walkAssign handles allocation binding, rebinding, and escapes.
func (w *poWalker) walkAssign(x *ast.AssignStmt, env poEnv) {
	// An allocation on the right binds the left-hand variables.
	if len(x.Rhs) == 1 {
		if kind, ok := w.allocKind(x.Rhs[0]); ok {
			g := &poGroup{kind: kind, state: poLive}
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := w.lhsObj(id); obj != nil {
						env[obj] = g
						if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
							w.tokens[obj] = true
						}
					}
				}
			}
			return
		}
	}
	// Self-append keeps tracking: x = append(x, ...).
	if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
		if id, ok := x.Lhs[0].(*ast.Ident); ok {
			if obj := w.lhsObj(id); obj != nil && env[obj] != nil && isSelfAppend(x.Rhs[0], obj, w.pass.TypesInfo) {
				return
			}
		}
	}
	// A helper that returns one of its own arguments aliases rather than
	// rebinds: q := passThrough(p) leaves q and p in one group, so a free
	// through either is a free of both.
	if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
		if g, ok := w.aliasGroup(x.Rhs[0], env); ok {
			if id, isIdent := x.Lhs[0].(*ast.Ident); isIdent {
				if obj := w.lhsObj(id); obj != nil {
					env[obj] = g
					return
				}
			}
		}
	}
	// A write through a tracked value's own field (p.hops = append(p.hops,
	// x)) mutates in place — no new alias escapes, so tracking survives.
	selfBases := map[types.Object]bool{}
	for _, lhs := range x.Lhs {
		if _, isIdent := lhs.(*ast.Ident); !isIdent {
			if obj := baseIdentObj(w.pass.TypesInfo, lhs); obj != nil {
				selfBases[obj] = true
			}
		}
	}
	for _, rhs := range x.Rhs {
		w.checkExpr(rhs, env)
		// Any other reference makes the value reachable from the left side,
		// except a read of a pointer-free field (addr := req.addr), which
		// copies a value out and leaves the record where it was.
		ast.Inspect(rhs, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && w.scalarField(sel) {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if obj := w.pass.TypesInfo.Uses[id]; obj != nil && env[obj] != nil && !selfBases[obj] {
					w.untrackObj(obj, env)
				}
			}
			return true
		})
	}
	for _, lhs := range x.Lhs {
		switch l := lhs.(type) {
		case *ast.Ident:
			if obj := w.lhsObj(l); obj != nil {
				delete(env, obj) // rebound to something untracked
			}
		default:
			w.checkExpr(lhs, env) // writing through a freed base is a use
		}
	}
}

// returns reports whether st ends in a return statement.
func returns(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return len(x.List) > 0 && returns(x.List[len(x.List)-1])
	case *ast.IfStmt:
		return x.Else != nil && returns(x.Body) && returns(x.Else)
	}
	return false
}

// scalarField reports whether sel reads a struct field whose type holds
// no pointers, so the read cannot alias the record it is read from.
func (w *poWalker) scalarField(sel *ast.SelectorExpr) bool {
	s, ok := w.pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal && pointerFree(s.Type())
}

// pointerFree reports whether values of t hold no pointers.  Strings
// count as pointer-free: their bytes are immutable, so no pool reuses
// them.
func pointerFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Array:
		return pointerFree(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFree(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}

// baseIdentObj resolves the root identifier object of a selector, index,
// or dereference chain (p.hops[i] -> p); nil for anything else.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// walkCall handles free, transfer, and plain calls.
func (w *poWalker) walkCall(call *ast.CallExpr, env poEnv, deferred bool) {
	name, recv := calleeNameRecv(w.pass.TypesInfo, call)

	if kind, isFree := poFreeKinds[name]; isFree || (name == "Free" && recv == "Arena") {
		if name == "Free" {
			kind = "descriptor"
		}
		if len(call.Args) >= 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := w.pass.TypesInfo.Uses[id]; obj != nil && env[obj] != nil {
					if deferred {
						w.deferred = append(w.deferred, struct {
							pos token.Pos
							obj types.Object
						}{call.Pos(), obj})
						return
					}
					w.consume(env, obj, call.Pos(), kind)
					return
				}
			}
			w.checkExpr(call.Args[0], env)
		}
		return
	}

	if poTransferFuncs[name] {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
					if g := env[obj]; g != nil {
						w.transfer(env, obj, g, a.Pos())
						continue
					}
				}
			}
			w.checkExpr(a, env)
		}
		return
	}

	// Interprocedural: a callee with a computed summary applies its
	// per-parameter effects (free, transfer, escape) right here.
	if callee := staticCallee(w.pass.TypesInfo, call); callee != nil && w.sums != nil {
		if sum, ok := w.sums.summaryFor(callee); ok {
			w.applySummary(call, sum, env, deferred)
			return
		}
	}

	w.checkExpr(call, env)
}

// applySummary folds a callee's PoolSummary into the caller's state: a
// tracked bare-identifier argument the callee frees is consumed at the
// call site, one it sends transfers, one it stores escapes.  Arguments
// the summary says nothing about keep the intra-procedural behavior (read
// check only).
func (w *poWalker) applySummary(call *ast.CallExpr, sum PoolSummary, env poEnv, deferred bool) {
	for j, a := range call.Args {
		var eff PoolParamEffect
		if j < len(sum.Params) {
			eff = sum.Params[j]
		}
		if !eff.zero() {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
					if g := env[obj]; g != nil {
						switch {
						case eff.Frees != "":
							if deferred {
								w.deferred = append(w.deferred, struct {
									pos token.Pos
									obj types.Object
								}{call.Pos(), obj})
							} else {
								w.consume(env, obj, a.Pos(), eff.Frees)
							}
						case eff.Transfers:
							w.transfer(env, obj, g, a.Pos())
						default: // escapes into the callee's reachable state
							w.untrackObj(obj, env)
						}
						continue
					}
				}
			}
		}
		w.checkExpr(a, env)
	}
}

// consume marks a group freed, reporting double frees and frees after
// transfer.
func (w *poWalker) consume(env poEnv, obj types.Object, pos token.Pos, kind string) {
	g := env[obj]
	switch g.state {
	case poFreed:
		w.pass.Report(pos, "pooled %s %q freed twice (first freed at %s)", g.kind, obj.Name(), w.pos(g.event))
	case poTransferred:
		w.pass.Report(pos, "pooled %s %q freed after its ownership transferred to the network at %s (the consumer frees it)", g.kind, obj.Name(), w.pos(g.event))
	default:
		g.state = poFreed
		g.event = pos
	}
}

// transfer marks a group's ownership as moved into the network.
func (w *poWalker) transfer(env poEnv, obj types.Object, g *poGroup, pos token.Pos) {
	switch g.state {
	case poFreed:
		w.pass.Report(pos, "pooled %s %q sent after free at %s", g.kind, obj.Name(), w.pos(g.event))
	case poTransferred:
		w.pass.Report(pos, "pooled %s %q sent twice (ownership already transferred at %s)", g.kind, obj.Name(), w.pos(g.event))
	default:
		g.state = poTransferred
		g.event = pos
	}
}

// checkExpr reports reads of dead variables and handles Packet{Payload: x}
// transfers and escapes inside an arbitrary expression.
func (w *poWalker) checkExpr(e ast.Expr, env poEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Captured by a closure running on its own schedule: stop
			// tracking anything it references.
			w.untrackExpr(x, env)
			return false
		case *ast.CompositeLit:
			w.compositeTransfer(x, env)
			return true
		case *ast.CallExpr:
			// Nested consuming calls (rare) still get their semantics.
			name, recv := calleeNameRecv(w.pass.TypesInfo, x)
			if _, isFree := poFreeKinds[name]; isFree || poTransferFuncs[name] || (name == "Free" && recv == "Arena") {
				w.walkCall(x, env, false)
				return false
			}
			if callee := staticCallee(w.pass.TypesInfo, x); callee != nil && w.sums != nil {
				if sum, ok := w.sums.summaryFor(callee); ok && sum.consumes() {
					w.applySummary(x, sum, env, false)
					return false
				}
			}
			return true
		case *ast.Ident:
			obj := w.pass.TypesInfo.Uses[x]
			if obj == nil {
				return true
			}
			if g := env[obj]; g != nil && g.state != poLive && !w.tokens[obj] {
				how := "free"
				if g.state == poTransferred {
					how = "ownership transfer"
				}
				w.pass.Report(x.Pos(), "pooled %s %q used after %s at %s", g.kind, obj.Name(), how, w.pos(g.event))
			}
			return true
		}
		return true
	})
}

// compositeTransfer handles composite literals: a tracked variable set as
// the Payload of an amnet.Packet transfers with the packet; a tracked
// variable stored into any other composite escapes and stops being
// tracked.
func (w *poWalker) compositeTransfer(lit *ast.CompositeLit, env poEnv) {
	isPacket := false
	if tv, ok := w.pass.TypesInfo.Types[lit]; ok {
		if n, ok := tv.Type.(*types.Named); ok {
			isPacket = n.Obj().Name() == "Packet" && isAmnetPkg(n.Obj().Pkg())
		}
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, _ := kv.Key.(*ast.Ident)
		id, isIdent := ast.Unparen(kv.Value).(*ast.Ident)
		if !isIdent {
			continue
		}
		obj := w.pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		g := env[obj]
		if g == nil {
			continue
		}
		if isPacket && key != nil && key.Name == "Payload" {
			if g.state != poLive {
				w.transfer(env, obj, g, id.Pos()) // reports the violation
			} else {
				w.pending = append(w.pending, struct {
					pos token.Pos
					obj types.Object
				}{id.Pos(), obj})
			}
		} else {
			// Escapes into some structure; ownership is no longer local.
			w.untrackObj(obj, env)
		}
	}
}

// untrackExpr forgets every tracked variable referenced in e (escape).
func (w *poWalker) untrackExpr(e ast.Node, env poEnv) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil && env[obj] != nil {
				w.untrackObj(obj, env)
			}
		}
		return true
	})
}

// untrackObj removes every alias of obj's group from the environment.
func (w *poWalker) untrackObj(obj types.Object, env poEnv) {
	g := env[obj]
	for k, v := range env {
		if v == g {
			delete(env, k)
		}
	}
}

// allocKind reports whether e is a pool allocation (possibly wrapped in
// append) and returns the allocated kind.
func (w *poWalker) allocKind(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	name, recv := calleeNameRecv(w.pass.TypesInfo, call)
	if name == "append" && len(call.Args) > 0 {
		return w.allocKind(call.Args[0])
	}
	if kind, ok := poAllocKinds[name]; ok {
		return kind, true
	}
	if name == "Alloc" && recv == "Arena" {
		return "descriptor", true
	}
	// Interprocedural: a helper whose summary ends in a fresh pool
	// allocation hands the caller ownership just like newX itself.
	if w.sums != nil {
		if callee := staticCallee(w.pass.TypesInfo, call); callee != nil {
			if sum, ok := w.sums.summaryFor(callee); ok && sum.AllocKind != "" {
				return sum.AllocKind, true
			}
		}
	}
	return "", false
}

// aliasGroup resolves a call that returns one of its own arguments to the
// argument's existing group; the remaining arguments still get their read
// checks.
func (w *poWalker) aliasGroup(e ast.Expr, env poEnv) (*poGroup, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || w.sums == nil {
		return nil, false
	}
	callee := staticCallee(w.pass.TypesInfo, call)
	if callee == nil {
		return nil, false
	}
	sum, ok := w.sums.summaryFor(callee)
	if !ok || sum.ReturnsParam < 0 || sum.ReturnsParam >= len(call.Args) {
		return nil, false
	}
	id, ok := ast.Unparen(call.Args[sum.ReturnsParam]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := w.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil, false
	}
	g := env[obj]
	if g == nil {
		return nil, false
	}
	for _, a := range call.Args {
		w.checkExpr(a, env)
	}
	return g, true
}

func (w *poWalker) lhsObj(id *ast.Ident) types.Object {
	if id.Name == "_" {
		return nil
	}
	if obj, ok := w.pass.TypesInfo.Defs[id]; ok && obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Uses[id]
}

func (w *poWalker) pos(p token.Pos) string { return shortPos(w.pass.Fset, p) }

// isSelfAppend reports whether e is append(x, ...) over the same variable.
func isSelfAppend(e ast.Expr, obj types.Object, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[first] == obj
}

// calleeNameRecv returns the called function's name and, for methods, the
// receiver's named-type name ("" otherwise).
func calleeNameRecv(info *types.Info, call *ast.CallExpr) (name, recv string) {
	fn := staticCallee(info, call)
	if fn == nil {
		// Builtins like append are not *types.Func in Uses; fall back to
		// the syntactic name.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			return id.Name, ""
		}
		return "", ""
	}
	name = fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	return name, recv
}

package analysis

import (
	"go/ast"
	"go/types"
)

// Interprocedural layer: a call graph over the package being analyzed plus
// per-function summaries describing what a callee does to its parameters.
// Summaries ride the existing JSON fact mechanism, so both drivers (module
// and `go vet -vettool`) see the same cross-package picture: a package's
// summaries are computed during its own pass (including FactsOnly dependency
// passes) and imported by downstream packages through Pass.ImportFacts.
//
// Two analyzers consume the layer: poolowner folds PoolSummary effects into
// its abstract interpretation so a helper that frees, sends, or leaks a
// pooled argument is applied at every call site, and wiresym folds
// WireSummary bit ranges through helper calls so packNodes-style packing
// helpers stay transparent to the schema check.

// funcKeyOf names a function for the summary store: "Name" for package
// functions, "Recv.Name" for methods (pointer receivers stripped).  The key
// is stable across compilations, which is what lets it live in JSON facts.
func funcKeyOf(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// funcGraph indexes the package's function declarations by their object so
// summary computations can recurse into same-package callees.
type funcGraph struct {
	pass  *Pass
	decls map[*types.Func]*ast.FuncDecl
}

// buildFuncGraph collects every function declaration with a body.
func buildFuncGraph(pass *Pass) *funcGraph {
	g := &funcGraph{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
			}
		}
	}
	return g
}

// flatParams returns the function's parameter objects in signature order
// (multi-name fields flattened), excluding the receiver.
func flatParams(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies a slot
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// --- pool-ownership summaries -------------------------------------------

// PoolParamEffect describes what a function does with one parameter when
// that parameter is a pooled value.
type PoolParamEffect struct {
	// Frees names the pool kind the function returns the parameter to
	// ("spawn record", "FIR path", ...) on some path, directly or through
	// a helper; empty if no path frees it.
	Frees string `json:",omitempty"`
	// Transfers reports that ownership moves into the network (the
	// parameter rides a Packet or a transfer function).
	Transfers bool `json:",omitempty"`
	// Escapes reports that the parameter becomes reachable from memory the
	// caller cannot see (struct, global, channel, goroutine, unknown call).
	Escapes bool `json:",omitempty"`
}

func (e PoolParamEffect) zero() bool { return e.Frees == "" && !e.Transfers && !e.Escapes }

// PoolSummary is the ownership behavior of one function, keyed by funcKeyOf
// in the poolowner fact blob.
type PoolSummary struct {
	Params []PoolParamEffect `json:",omitempty"`
	// AllocKind is set when the function's first result is a fresh pool
	// allocation ("spawn record", ...): callers binding the result own it.
	AllocKind string `json:",omitempty"`
	// ReturnsParam is the index of the parameter aliased by the first
	// result (-1 when the result is not a parameter).
	ReturnsParam int
}

// consumes reports whether any parameter is freed or transferred — the
// effects that must be applied even when the call sits inside a larger
// expression.
func (s PoolSummary) consumes() bool {
	for _, p := range s.Params {
		if p.Frees != "" || p.Transfers {
			return true
		}
	}
	return false
}

func (s PoolSummary) interesting() bool {
	if s.AllocKind != "" || s.ReturnsParam >= 0 {
		return true
	}
	for _, p := range s.Params {
		if !p.zero() {
			return true
		}
	}
	return false
}

// poFacts is poolowner's serialized cross-package state.
type poFacts struct {
	Summaries map[string]PoolSummary `json:",omitempty"`
}

// poSummarizer computes PoolSummaries for the package's functions with
// memoized recursion; cycles see the in-progress zero summary.
type poSummarizer struct {
	graph *funcGraph
	memo  map[*types.Func]*PoolSummary
	deps  map[string]map[string]PoolSummary // dep package path -> summaries
}

func newPoSummarizer(pass *Pass) *poSummarizer {
	return &poSummarizer{
		graph: buildFuncGraph(pass),
		memo:  map[*types.Func]*PoolSummary{},
		deps:  map[string]map[string]PoolSummary{},
	}
}

// summaryFor resolves fn's PoolSummary: hardcoded kernel entry points
// first, then same-package computation, then imported facts.  ok is false
// for functions the analysis knows nothing about.
func (s *poSummarizer) summaryFor(fn *types.Func) (PoolSummary, bool) {
	if fn == nil {
		return PoolSummary{}, false
	}
	if decl, ok := s.graph.decls[fn]; ok {
		if sum := s.memo[fn]; sum != nil {
			return *sum, true
		}
		sum := &PoolSummary{ReturnsParam: -1}
		s.memo[fn] = sum // cycle guard: recursive calls see no effects
		*sum = s.compute(fn, decl)
		return *sum, true
	}
	if pkg := fn.Pkg(); pkg != nil && pkg != s.graph.pass.Pkg {
		byKey, ok := s.deps[pkg.Path()]
		if !ok {
			var facts poFacts
			if s.graph.pass.ImportFacts(pkg.Path(), &facts) {
				byKey = facts.Summaries
			}
			s.deps[pkg.Path()] = byKey
		}
		if sum, ok := byKey[funcKeyOf(fn)]; ok {
			return sum, true
		}
	}
	return PoolSummary{}, false
}

// compute classifies one function body.  The classification is
// deliberately shallow — only parameters used as plain identifiers are
// tracked, matching what the caller-side walker can bind to — and errs
// toward Escapes, which makes callers forget the value rather than report.
func (s *poSummarizer) compute(fn *types.Func, fd *ast.FuncDecl) PoolSummary {
	info := s.graph.pass.TypesInfo
	params := flatParams(info, fd)
	sum := PoolSummary{Params: make([]PoolParamEffect, len(params)), ReturnsParam: -1}
	paramIdx := map[types.Object]int{}
	for i, obj := range params {
		if obj != nil {
			paramIdx[obj] = i
		}
	}
	// Integer parameters are generation-checked arena tokens, never
	// pointers into the pool; skip them like the walker's tokens map does.
	token := func(i int) bool {
		if params[i] == nil {
			return true
		}
		b, ok := params[i].Type().Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}
	paramOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		i, ok := paramIdx[info.Uses[id]]
		return i, ok && !token(i)
	}

	// First result handling: `return p` aliases a parameter, `return
	// newX()` hands the caller a fresh allocation.
	firstResult := func(e ast.Expr) {
		if i, ok := paramOf(e); ok {
			sum.ReturnsParam = i
			return
		}
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			name, recv := calleeNameRecv(info, call)
			if kind, ok := poAllocKinds[name]; ok {
				sum.AllocKind = kind
			} else if name == "Alloc" && recv == "Arena" {
				sum.AllocKind = "descriptor"
			}
		}
	}

	// consumedAt marks argument positions whose use is already classified,
	// so the escape sweep below skips them.
	consumedAt := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			name, recv := calleeNameRecv(info, x)
			if kind, isFree := poFreeKinds[name]; isFree || (name == "Free" && recv == "Arena") {
				if name == "Free" {
					kind = "descriptor"
				}
				if len(x.Args) >= 1 {
					if i, ok := paramOf(x.Args[0]); ok {
						sum.Params[i].Frees = kind
						consumedAt[x.Args[0]] = true
					}
				}
				return true
			}
			if poTransferFuncs[name] {
				for _, a := range x.Args {
					if i, ok := paramOf(a); ok {
						sum.Params[i].Transfers = true
						consumedAt[a] = true
					}
				}
				return true
			}
			// Fold same-package / imported callee effects through one level.
			if callee := staticCallee(info, x); callee != nil && callee != fn {
				if csum, ok := s.summaryFor(callee); ok {
					for j, a := range x.Args {
						i, isParam := paramOf(a)
						if !isParam || j >= len(csum.Params) {
							continue
						}
						eff := csum.Params[j]
						if eff.zero() {
							continue
						}
						if eff.Frees != "" {
							sum.Params[i].Frees = eff.Frees
						}
						sum.Params[i].Transfers = sum.Params[i].Transfers || eff.Transfers
						sum.Params[i].Escapes = sum.Params[i].Escapes || eff.Escapes
						consumedAt[a] = true
					}
				}
			}
		case *ast.ReturnStmt:
			if len(x.Results) >= 1 {
				firstResult(x.Results[0])
			}
		}
		return true
	})

	// Escape sweep: any remaining whole-identifier use of a parameter in a
	// position that publishes it — composite literal, channel send,
	// goroutine, closure capture, assignment right-hand side, unclassified
	// call argument — marks it escaping.  Selector and index reads through
	// the parameter (p.vt, p.hops[i]) do not publish the pointer.
	escape := func(e ast.Expr) {
		if i, ok := paramOf(e); ok && !consumedAt[e] {
			sum.Params[i].Escapes = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				escape(el)
			}
		case *ast.SendStmt:
			escape(x.Value)
		case *ast.GoStmt:
			for _, a := range x.Call.Args {
				escape(a)
			}
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					escape(id)
				}
				return true
			})
			return false
		case *ast.AssignStmt:
			// `p = append(p, ...)` keeps the parameter local; any other
			// assignment of the bare parameter publishes an alias.
			for ri, rhs := range x.Rhs {
				if ri < len(x.Lhs) {
					if id, ok := ast.Unparen(x.Lhs[ri]).(*ast.Ident); ok {
						if obj := defOrUse(info, id); obj != nil {
							if i, isParam := paramIdx[obj]; isParam && isSelfAppend(rhs, params[i], info) {
								continue
							}
						}
					}
				}
				escape(rhs)
			}
		case *ast.CallExpr:
			name, recv := calleeNameRecv(info, x)
			known := false
			if _, isFree := poFreeKinds[name]; isFree || poTransferFuncs[name] || (name == "Free" && recv == "Arena") {
				known = true
			}
			if callee := staticCallee(info, x); !known && callee != nil && callee != fn {
				_, known = s.summaryFor(callee)
			}
			if !known && name != "append" && name != "len" && name != "cap" {
				for _, a := range x.Args {
					escape(a)
				}
			}
		case *ast.ReturnStmt:
			for ri, r := range x.Results {
				if ri == 0 {
					if i, ok := paramOf(r); ok && sum.ReturnsParam == i {
						continue // aliased to the caller via ReturnsParam
					}
				}
				escape(r)
			}
		}
		return true
	})
	return sum
}

// ownedParams returns the parameters fn consumes — frees on some path,
// whether or not another path sends the value on — keyed to their pool
// kind.  Callers hand such a parameter over at the call, so fn owns it
// from entry, and the walker tracks it like a fresh allocation: a
// handler that passes its request to a consuming helper and then frees it
// too is a double free.
func (s *poSummarizer) ownedParams(fn *types.Func, fd *ast.FuncDecl) map[types.Object]string {
	sum, ok := s.summaryFor(fn)
	if !ok {
		return nil
	}
	var owned map[types.Object]string
	for i, obj := range flatParams(s.graph.pass.TypesInfo, fd) {
		if obj == nil || i >= len(sum.Params) || sum.Params[i].Frees == "" {
			continue
		}
		if owned == nil {
			owned = map[types.Object]string{}
		}
		owned[obj] = sum.Params[i].Frees
	}
	return owned
}

// exportable returns the summaries worth serializing: only functions with
// a nontrivial effect, keyed by funcKeyOf.
func (s *poSummarizer) exportable() map[string]PoolSummary {
	out := map[string]PoolSummary{}
	for fn := range s.graph.decls {
		if sum, ok := s.summaryFor(fn); ok && sum.interesting() {
			out[funcKeyOf(fn)] = sum
		}
	}
	return out
}

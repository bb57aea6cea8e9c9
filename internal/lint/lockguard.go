package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"ring/internal/lint/flow"
)

// LockGuard checks mutex discipline as a forward dataflow problem over
// the flow CFGs:
//
//  1. Guarded fields. A struct field is mutex-guarded when declared so
//     (//ring:guardedby mu on the field) or when inference says so: at
//     least two accesses hold the sibling mutex and at least 75% of
//     all accesses do. Every access to a guarded field must then hold
//     that mutex on every path reaching it.
//  2. Blocking under a lock. While any mutex may be held, no blocking
//     operation runs: channel send/receive (outside a select with a
//     default), ranging over a channel, time.Sleep, calls into the
//     durable-storage packages, the transport package, or net, and
//     same-package calls that transitively reach one of those.
//  3. Double lock. Calling Lock on a mutex already held on every path
//     self-deadlocks.
//
// Lock state is tracked per (root object, selector path) — r.mu and
// e.fs.mu are distinct keys — with a three-point lattice
// unheld/held/maybe merged at CFG joins. `defer mu.Unlock()` leaves
// the state held, which is the point: the lock is held to function
// exit. Function entry is assumed all-unheld; a callee relying on its
// caller's lock shows up as a mostly-unheld field in inference rather
// than a finding, the documented soundness trade.
//
// Test files are skipped entirely. //ring:lockok (line or enclosing
// function doc) exempts a finding; a function whose doc carries it is
// exempt wholesale — the audit trail for the deliberate
// hold-across-fsync sections in Runner.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "guarded fields are accessed under their mutex and nothing blocks while a mutex is held",
	Run:  runLockGuard,
}

// lockVal is the per-key lattice value. Absence from the state map is
// unheld.
type lockVal int

const (
	lkHeld lockVal = iota + 1
	lkMaybe
)

// lockKey names one mutex (or the base of a field access): the root
// object plus the selector path from it ("mu", "fs.mu", "" for a bare
// local).
type lockKey struct {
	base types.Object
	path string
}

func (k lockKey) String() string {
	if k.path == "" {
		return k.base.Name()
	}
	return k.base.Name() + "." + k.path
}

type lockOpKind int

const (
	opLock    lockOpKind = iota // Lock
	opRLock                     // RLock (held, but not a self-deadlock on repeat)
	opTryLock                   // TryLock/TryRLock: maybe-held after
	opUnlock                    // Unlock/RUnlock
	opAccess                    // read or write of a mutex-sibling field
	opBlock                     // a blocking primitive
	opCall                      // same-package call (blocking via summary)
)

// lockOp is one position-ordered event inside a CFG node.
type lockOp struct {
	kind    lockOpKind
	key     lockKey // lock/unlock ops
	keyOK   bool
	field   *types.Var // access ops
	guard   lockKey    // the mutex key that would guard this access
	guardOK bool
	callees []*flow.Unit // opCall
	pos     token.Pos
	label   string
}

type lockState struct {
	pass *Pass
	cg   *flow.CallGraph
	// mutexSib maps every field of a mutex-carrying struct to the name
	// of the sibling mutex field guarding it (the declared //ring:guardedby
	// target, else the struct's first mutex field).
	mutexSib map[*types.Var]string
	declared map[*types.Var]bool // //ring:guardedby present
	ops      map[*flow.Unit]map[*flow.Node][]lockOp
	mayBlock map[*flow.Unit]bool
	// ctorOf lists the named struct types a unit constructs (composite
	// literal); accesses to their fields in that unit are exempt from
	// both inference and reporting — initialization before sharing.
	ctorOf map[*flow.Unit]map[*types.Named]bool
	outs   map[*flow.Unit]map[*flow.Node]map[lockKey]lockVal
}

func runLockGuard(pass *Pass) error {
	st := &lockState{
		pass:     pass,
		cg:       flow.NewCallGraph(pass.Pkg, pass.Info, pass.Files, pass.IsTestFile),
		mutexSib: map[*types.Var]string{},
		declared: map[*types.Var]bool{},
		ops:      map[*flow.Unit]map[*flow.Node][]lockOp{},
		mayBlock: map[*flow.Unit]bool{},
		ctorOf:   map[*flow.Unit]map[*types.Named]bool{},
		outs:     map[*flow.Unit]map[*flow.Node]map[lockKey]lockVal{},
	}
	st.scanStructs()
	for _, u := range st.cg.Units {
		st.ctorOf[u] = st.constructedTypes(u)
		st.ops[u] = st.extractOps(u)
	}
	st.fixMayBlock()
	for _, u := range st.cg.Units {
		st.outs[u] = st.dataflow(u)
	}

	// Inference: count accesses per field across the package, split by
	// whether the sibling mutex is must-held at the access.
	type count struct{ total, held int }
	counts := map[*types.Var]*count{}
	st.eachAccess(func(u *flow.Unit, op lockOp, state map[lockKey]lockVal) {
		c := counts[op.field]
		if c == nil {
			c = &count{}
			counts[op.field] = c
		}
		c.total++
		if op.guardOK && state[op.guard] == lkHeld {
			c.held++
		}
	})
	guarded := map[*types.Var]bool{}
	for f := range st.mutexSib {
		if st.declared[f] {
			guarded[f] = true
			continue
		}
		if c := counts[f]; c != nil && c.held >= 2 && c.held*4 >= c.total*3 {
			guarded[f] = true
		}
	}

	exempt := func(pos token.Pos) bool {
		return pass.lineDirective(pos, "lockok") || enclosingFuncHasDirective(pass, pos, "lockok")
	}
	heldAny := func(state map[lockKey]lockVal) (lockKey, bool) {
		var best lockKey
		found := false
		for k, v := range state {
			if v == lkHeld {
				return k, true
			}
			best, found = k, true
		}
		return best, found
	}

	// Reporting walk: replay each node's ops against its in-state.
	for _, u := range st.cg.Units {
		for _, n := range u.Graph.Nodes {
			state := st.inState(u, n)
			for _, op := range st.ops[u][n] {
				switch op.kind {
				case opLock:
					if op.keyOK && state[op.key] == lkHeld && !exempt(op.pos) {
						pass.Reportf(op.pos, "%s.Lock while %s is already held (self-deadlock)", op.key, op.key)
					}
				case opAccess:
					if guarded[op.field] && !st.ctorOf[u][namedOwner(op.field)] {
						if (!op.guardOK || state[op.guard] != lkHeld) && !exempt(op.pos) {
							pass.Reportf(op.pos, "field %s is guarded by %s but accessed without holding it",
								op.field.Name(), st.mutexSib[op.field])
						}
					}
				case opBlock:
					if k, held := heldAny(state); held && !exempt(op.pos) {
						pass.Reportf(op.pos, "%s while %s is held", op.label, k)
					}
				case opCall:
					blocking := false
					for _, v := range op.callees {
						if st.mayBlock[v] {
							blocking = true
						}
					}
					if blocking {
						if k, held := heldAny(state); held && !exempt(op.pos) {
							pass.Reportf(op.pos, "call to %s may block while %s is held", op.label, k)
						}
					}
				}
				st.apply(state, op)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------- structs

// scanStructs finds every package-scope struct carrying a
// sync.Mutex/RWMutex field and records, for each non-mutex field, the
// sibling mutex guarding it.
func (st *lockState) scanStructs() {
	for _, f := range st.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			s, ok := n.(*ast.StructType)
			if !ok || s.Fields == nil {
				return true
			}
			var mutexName string
			for _, fd := range s.Fields.List {
				for _, name := range fd.Names {
					if v, ok := st.pass.Info.Defs[name].(*types.Var); ok && isMutexType(v.Type()) {
						mutexName = name.Name
					}
				}
				if mutexName != "" {
					break
				}
			}
			if mutexName == "" {
				return true
			}
			for _, fd := range s.Fields.List {
				sib := mutexName
				declared := false
				if args, ok := directiveArgs(fd.Doc, "guardedby"); ok && len(args) > 0 {
					sib, declared = args[0], true
				} else if args, ok := directiveArgs(fd.Comment, "guardedby"); ok && len(args) > 0 {
					sib, declared = args[0], true
				}
				for _, name := range fd.Names {
					v, ok := st.pass.Info.Defs[name].(*types.Var)
					if !ok || isMutexType(v.Type()) {
						continue
					}
					if _, isChan := v.Type().Underlying().(*types.Chan); isChan && !declared {
						// A channel is its own synchronization; sending
						// on one is not a guarded-field access.
						continue
					}
					st.mutexSib[v] = sib
					if declared {
						st.declared[v] = true
					}
				}
			}
			return true
		})
	}
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// namedOwner returns the named struct type declaring field f, or nil.
func namedOwner(f *types.Var) *types.Named {
	// The field's parent scope does not lead back to the type; walk the
	// package scope instead.
	if f.Pkg() == nil {
		return nil
	}
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		s, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < s.NumFields(); i++ {
			if s.Field(i) == f {
				return named
			}
		}
	}
	return nil
}

// constructedTypes lists named struct types the unit builds with a
// composite literal.
func (st *lockState) constructedTypes(u *flow.Unit) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	ast.Inspect(u.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := st.pass.Info.Types[lit].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				out[named] = true
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------- keys

// exprKey resolves a selector chain rooted at a plain identifier to a
// (base object, path) key. Anything else — an index expression, a call
// result — is unkeyable.
func exprKey(info *types.Info, e ast.Expr) (lockKey, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if _, ok := obj.(*types.Var); ok {
			return lockKey{base: obj}, true
		}
	case *ast.ParenExpr:
		return exprKey(info, e.X)
	case *ast.SelectorExpr:
		k, ok := exprKey(info, e.X)
		if !ok {
			return lockKey{}, false
		}
		if k.path == "" {
			k.path = e.Sel.Name
		} else {
			k.path += "." + e.Sel.Name
		}
		return k, true
	}
	return lockKey{}, false
}

// ---------------------------------------------------------------- ops

type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

// nonBlockingComms collects the positions of communication operations
// belonging to selects that have a default clause — those never block.
func nonBlockingComms(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				out = append(out, posRange{cc.Comm.Pos(), cc.Comm.End()})
			}
		}
		return true
	})
	return out
}

var lockMethods = map[string]lockOpKind{
	"Lock":     opLock,
	"RLock":    opRLock,
	"TryLock":  opTryLock,
	"TryRLock": opTryLock,
	"Unlock":   opUnlock,
	"RUnlock":  opUnlock,
}

// extractOps builds the position-ordered op lists of one unit.
func (st *lockState) extractOps(u *flow.Unit) map[*flow.Node][]lockOp {
	info := st.pass.Info
	nbComms := nonBlockingComms(u.Body)
	out := map[*flow.Node][]lockOp{}
	for _, n := range u.Graph.Nodes {
		if _, ok := n.Ast.(*ast.DeferStmt); ok {
			// Deferred calls run at return; in particular a deferred
			// Unlock does NOT release the lock here — held-to-exit is
			// exactly the model we want.
			continue
		}
		var ops []lockOp
		// A range head whose expression is a channel blocks per
		// iteration.
		if ex, ok := n.Ast.(ast.Expr); ok {
			if t := info.Types[ex].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					ops = append(ops, lockOp{kind: opBlock, pos: ex.Pos(), label: "ranging over a channel"})
				}
			}
		}
		// The call a go statement spawns runs in another goroutine; it
		// never blocks the spawner (its arguments, evaluated here, can).
		var spawned *ast.CallExpr
		if g, ok := n.Ast.(*ast.GoStmt); ok {
			spawned = g.Call
		}
		var lockRecvs []posRange
		flow.ScanNode(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SendStmt:
				if !inRanges(nbComms, x.Pos()) {
					ops = append(ops, lockOp{kind: opBlock, pos: x.Pos(), label: "channel send"})
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !inRanges(nbComms, x.Pos()) {
					ops = append(ops, lockOp{kind: opBlock, pos: x.Pos(), label: "channel receive"})
				}
			case *ast.CallExpr:
				if x == spawned {
					return true
				}
				if op, ok := st.classifyCall(u, x); ok {
					ops = append(ops, op)
					if op.kind <= opUnlock {
						if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel {
							lockRecvs = append(lockRecvs, posRange{sel.X.Pos(), sel.X.End()})
						}
					}
				}
			case *ast.SelectorExpr:
				if op, ok := st.classifyAccess(x); ok {
					ops = append(ops, op)
				}
			}
			return true
		})
		// Drop field accesses that are just the spine of a lock call
		// (the m.mu in m.mu.Lock()) — they are the discipline, not a
		// guarded access.
		kept := ops[:0]
		for _, op := range ops {
			if op.kind == opAccess && inRanges(lockRecvs, op.pos) {
				continue
			}
			kept = append(kept, op)
		}
		ops = kept
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && ops[j].pos < ops[j-1].pos; j-- {
				ops[j], ops[j-1] = ops[j-1], ops[j]
			}
		}
		if len(ops) > 0 {
			out[n] = ops
		}
	}
	return out
}

// classifyCall turns a call into a lock op, a blocking primitive, or a
// same-package call event.
func (st *lockState) classifyCall(u *flow.Unit, call *ast.CallExpr) (lockOp, bool) {
	info := st.pass.Info
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if kind, isLockM := lockMethods[sel.Sel.Name]; isLockM && isMutexType(info.Types[sel.X].Type) {
			key, keyOK := exprKey(info, sel.X)
			return lockOp{kind: kind, key: key, keyOK: keyOK, pos: call.Pos()}, true
		}
	}
	if _, ok := calleeFromPkg(info, call, "time", "Sleep"); ok {
		return lockOp{kind: opBlock, pos: call.Pos(), label: "time.Sleep"}, true
	}
	if fn := flow.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg() != st.pass.Pkg {
		p := fn.Pkg().Path()
		if durablePkgs[p] || p == "ring/internal/transport" || p == "net" {
			return lockOp{kind: opBlock, pos: call.Pos(),
				label: "call to " + fn.Pkg().Name() + "." + fn.Name()}, true
		}
	}
	if callees := st.cg.Callees(call); len(callees) > 0 {
		return lockOp{kind: opCall, callees: callees, pos: call.Pos(), label: calleeLabel(call)}, true
	}
	return lockOp{}, false
}

// calleeLabel names a call's callee for diagnostics.
func calleeLabel(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.FuncLit:
		return "a function literal"
	}
	return "a call"
}

// classifyAccess turns a field selection into an access op when the
// field has a sibling mutex.
func (st *lockState) classifyAccess(sel *ast.SelectorExpr) (lockOp, bool) {
	info := st.pass.Info
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return lockOp{}, false
	}
	f, ok := s.Obj().(*types.Var)
	if !ok {
		return lockOp{}, false
	}
	sib, tracked := st.mutexSib[f]
	if !tracked {
		return lockOp{}, false
	}
	op := lockOp{kind: opAccess, field: f, pos: sel.Sel.Pos()}
	if base, ok := exprKey(info, sel.X); ok {
		if base.path == "" {
			base.path = sib
		} else {
			base.path += "." + sib
		}
		op.guard, op.guardOK = base, true
	}
	return op, true
}

// ---------------------------------------------------------------- summaries

// fixMayBlock marks units containing a blocking primitive, closed
// under same-package calls.
func (st *lockState) fixMayBlock() {
	for _, u := range st.cg.Units {
		for _, ops := range st.ops[u] {
			for _, op := range ops {
				if op.kind == opBlock {
					st.mayBlock[u] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, u := range st.cg.Units {
			if st.mayBlock[u] {
				continue
			}
			for _, ops := range st.ops[u] {
				for _, op := range ops {
					if op.kind != opCall {
						continue
					}
					for _, v := range op.callees {
						if st.mayBlock[v] {
							st.mayBlock[u] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------- dataflow

func mergeState(dst, src map[lockKey]lockVal) {
	for k, v := range src {
		if dst[k] != v {
			dst[k] = lkMaybe // disagreement (incl. unheld-vs-held) joins to maybe
		}
	}
	for k, v := range dst {
		if v == lkHeld && src[k] == 0 {
			dst[k] = lkMaybe
		}
	}
}

func cloneState(s map[lockKey]lockVal) map[lockKey]lockVal {
	out := make(map[lockKey]lockVal, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func equalState(a, b map[lockKey]lockVal) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// apply runs one op's transfer on the state in place.
func (st *lockState) apply(state map[lockKey]lockVal, op lockOp) {
	if !op.keyOK {
		return
	}
	switch op.kind {
	case opLock, opRLock:
		state[op.key] = lkHeld
	case opTryLock:
		state[op.key] = lkMaybe
	case opUnlock:
		delete(state, op.key)
	}
}

// inState merges the predecessors' out-states of n. The entry node
// (and any node with no predecessors) starts all-unheld. Predecessors
// the fixpoint has not computed yet are bottom — the identity of the
// merge, NOT all-unheld — otherwise a loop back edge poisons the head
// to maybe on the first pass and the damage is permanent.
func (st *lockState) inState(u *flow.Unit, n *flow.Node) map[lockKey]lockVal {
	outs := st.outs[u]
	var in map[lockKey]lockVal
	for _, p := range n.Preds {
		po, computed := outs[p]
		if !computed {
			continue
		}
		if in == nil {
			in = cloneState(po)
			continue
		}
		mergeState(in, po)
	}
	if in == nil {
		in = map[lockKey]lockVal{}
	}
	return in
}

// dataflow computes the out-state of every node to a fixpoint.
func (st *lockState) dataflow(u *flow.Unit) map[*flow.Node]map[lockKey]lockVal {
	outs := map[*flow.Node]map[lockKey]lockVal{}
	st.outs[u] = outs
	for changed := true; changed; {
		changed = false
		for _, n := range u.Graph.Nodes {
			state := st.inState(u, n)
			for _, op := range st.ops[u][n] {
				st.apply(state, op)
			}
			if !equalState(state, outs[n]) {
				outs[n] = state
				changed = true
			}
		}
	}
	return outs
}

// eachAccess replays every unit and hands each field access to fn with
// the lock state in effect at it. Constructor units are skipped for
// the types they build.
func (st *lockState) eachAccess(fn func(u *flow.Unit, op lockOp, state map[lockKey]lockVal)) {
	for _, u := range st.cg.Units {
		for _, n := range u.Graph.Nodes {
			state := st.inState(u, n)
			for _, op := range st.ops[u][n] {
				if op.kind == opAccess && !st.ctorOf[u][namedOwner(op.field)] {
					fn(u, op, state)
				}
				st.apply(state, op)
			}
		}
	}
}

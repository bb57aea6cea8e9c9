package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ring/internal/lint/flow"
)

// AckOrder enforces the paper's acknowledgement-ordering invariant as
// a dataflow property: on protocol-handler paths (rooted at functions
// annotated //ring:handler), no reply or ack emission may be
// statically reachable before the barrier calls the handler owes —
// quorum bookkeeping (tracker Open/Ack, quorumAcks) and durable
// persistence (persist*, SyncDurable, calls into the storage engines).
//
//	//ring:handler                requires quorum and persist
//	//ring:handler persist        replica-side: persist-before-ack only
//	//ring:handler quorum         quorum only
//
// An emission is a send/sendNode/Send call whose message is a
// *...Reply or *...Ack struct that succeeds: Status absent, Status set
// to StOK, or Status forwarded from a parameter that some call site
// fills with StOK (how replyStatus and the fail closures are seen
// through). Non-OK constant statuses are error replies, not acks.
//
// The analysis is interprocedural over the same-package call graph
// (internal/lint/flow): a call into a function every path of which
// passes a barrier counts as that barrier; a call into a function that
// can emit a bare ack counts as an emission at the call site. Calls
// through function-typed parameters or into other packages are
// invisible — the soundness boundary documented in DESIGN.md.
//
// //ring:ackok on an emission's line exempts it (and stops its
// propagation to callers); the deliberate ChaosUnsafeAck commit in
// core is the canonical site.
var AckOrder = &Analyzer{
	Name: "ackorder",
	Doc:  "//ring:handler paths must pass their quorum and persist barriers before any reply/ack emission",
	Run:  runAckOrder,
}

// Barrier classes.
const (
	clsQuorum = iota
	clsPersist
	numClasses
)

var className = [numClasses]string{"quorum", "persist"}

type ackEvKind int

const (
	evBarrier ackEvKind = iota
	evAck
	evCall
)

// ackEvent is one classified call inside a CFG node.
type ackEvent struct {
	kind    ackEvKind
	class   [numClasses]bool // barrier classes (evBarrier)
	callees []*flow.Unit     // same-package resolutions (evCall)
	label   string           // message type or callee name, for diagnostics
	pos     token.Pos        // report position (call start)
	ord     token.Pos        // intra-node ordering position (call end: nested calls run first)
	exempt  bool             // //ring:ackok on the line
}

type ackState struct {
	pass   *Pass
	cg     *flow.CallGraph
	events map[*flow.Unit]map[*flow.Node][]ackEvent
	// params maps each unit to its declared parameter objects, in
	// order, for the status-forwarding summary.
	params map[*flow.Unit][]types.Object
	// fwd[u] marks parameter indices of u that flow into the Status
	// field of an otherwise-success reply emitted (transitively) by u.
	fwd map[*flow.Unit]map[int]bool
	// barrierAll[u][c]: every entry->exit path of u passes a class-c
	// barrier.
	barrierAll map[*flow.Unit]*[numClasses]bool
	// bareAck[u][c]: some path from u's entry reaches an ack emission
	// before any class-c barrier.
	bareAck map[*flow.Unit]*[numClasses]bool
}

func runAckOrder(pass *Pass) error {
	st := &ackState{
		pass:       pass,
		cg:         flow.NewCallGraph(pass.Pkg, pass.Info, pass.Files, pass.IsTestFile),
		events:     map[*flow.Unit]map[*flow.Node][]ackEvent{},
		params:     map[*flow.Unit][]types.Object{},
		fwd:        map[*flow.Unit]map[int]bool{},
		barrierAll: map[*flow.Unit]*[numClasses]bool{},
		bareAck:    map[*flow.Unit]*[numClasses]bool{},
	}
	roots := map[*flow.Unit]*[numClasses]bool{}
	for _, u := range st.cg.Units {
		st.params[u] = unitParams(pass.Info, u)
		st.fwd[u] = map[int]bool{}
		st.barrierAll[u] = &[numClasses]bool{}
		st.bareAck[u] = &[numClasses]bool{}
		if fd, ok := u.Decl.(*ast.FuncDecl); ok {
			if req, ok := handlerClasses(fd); ok {
				roots[u] = req
			}
		}
	}
	if len(roots) == 0 {
		return nil // nothing annotated; the package has no handler protocol
	}

	st.computeForwarding()
	for _, u := range st.cg.Units {
		st.events[u] = st.classify(u)
	}
	st.fixBarrierAll()
	st.fixBareAck()

	// bareEntered[u][c]: u is (transitively) entered on a path that
	// has not yet passed its class-c barrier.
	entered := map[*flow.Unit]*[numClasses]bool{}
	for _, u := range st.cg.Units {
		entered[u] = &[numClasses]bool{}
	}
	for u, req := range roots {
		*entered[u] = *req
	}
	for changed := true; changed; {
		changed = false
		for _, u := range st.cg.Units {
			for c := 0; c < numClasses; c++ {
				if !entered[u][c] {
					continue
				}
				st.eachBareEvent(u, c, func(e ackEvent) {
					if e.kind != evCall || e.exempt {
						return
					}
					for _, v := range e.callees {
						if !entered[v][c] {
							entered[v][c] = true
							changed = true
						}
					}
				})
			}
		}
	}

	// Report every non-exempt emission reachable bare in an
	// entered-bare unit, at the most local position: the primitive
	// send, or the call through which a bare emission is reachable.
	for _, u := range st.cg.Units {
		for c := 0; c < numClasses; c++ {
			if !entered[u][c] {
				continue
			}
			st.eachBareEvent(u, c, func(e ackEvent) {
				if e.exempt || !st.ackish(e, c) {
					return
				}
				switch e.kind {
				case evAck:
					pass.Reportf(e.pos, "handler path emits %s before its %s barrier", e.label, className[c])
				case evCall:
					pass.Reportf(e.pos, "handler path can emit a reply through %s before its %s barrier", e.label, className[c])
				}
			})
		}
	}
	return nil
}

// handlerClasses parses a //ring:handler directive: leading arguments
// name the required barrier classes; a bare directive (or one going
// straight to justification prose) requires quorum and persist.
func handlerClasses(fd *ast.FuncDecl) (*[numClasses]bool, bool) {
	args, ok := directiveArgs(fd.Doc, "handler")
	if !ok {
		return nil, false
	}
	var req [numClasses]bool
	named := false
loop:
	for _, a := range args {
		switch a {
		case "quorum":
			req[clsQuorum] = true
			named = true
		case "persist":
			req[clsPersist] = true
			named = true
		default:
			break loop // justification prose
		}
	}
	if !named {
		req[clsQuorum], req[clsPersist] = true, true
	}
	return &req, true
}

// unitParams returns the declared parameter objects of a unit in
// order.
func unitParams(info *types.Info, u *flow.Unit) []types.Object {
	var ft *ast.FuncType
	switch d := u.Decl.(type) {
	case *ast.FuncDecl:
		ft = d.Type
	case *ast.FuncLit:
		ft = d.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// paramIndex returns the index of e in u's parameter list, or -1.
func (st *ackState) paramIndex(u *flow.Unit, e ast.Expr) int {
	id, ok := e.(*ast.Ident)
	if !ok {
		return -1
	}
	obj := st.pass.Info.Uses[id]
	if obj == nil {
		return -1
	}
	for i, p := range st.params[u] {
		if p == obj {
			return i
		}
	}
	return -1
}

// computeForwarding fills fwd to a fixpoint: a parameter forwards into
// a Status field directly (send with Status: param) or through a call
// passing it at a forwarding index of a same-package callee.
func (st *ackState) computeForwarding() {
	for changed := true; changed; {
		changed = false
		for _, u := range st.cg.Units {
			ast.Inspect(u.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a literal's body is its own unit
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if msg, status := st.replyArg(u, call); msg != "" && status != nil {
					if i := st.paramIndex(u, status); i >= 0 && !st.fwd[u][i] {
						st.fwd[u][i] = true
						changed = true
					}
				}
				for _, v := range st.cg.Callees(call) {
					for i := range st.fwd[v] {
						if i < len(call.Args) {
							if j := st.paramIndex(u, call.Args[i]); j >= 0 && !st.fwd[u][j] {
								st.fwd[u][j] = true
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
}

// replyArg inspects a send-like call: if some argument is a
// *...Reply/*...Ack message it returns the message type name and the
// Status field's value expression (nil when the Status key is absent).
// A non-reply call returns ("", nil).
func (st *ackState) replyArg(u *flow.Unit, call *ast.CallExpr) (string, ast.Expr) {
	if !isSendLike(call) {
		return "", nil
	}
	for _, arg := range call.Args {
		name := replyTypeName(st.pass.Info, arg)
		if name == "" {
			continue
		}
		lit := st.resolveComposite(u, arg)
		if lit == nil {
			return name, nil
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Status" {
				return name, kv.Value
			}
		}
		return name, nil
	}
	return "", nil
}

// isSendLike matches the repo's emission chokepoints by name:
// Node.send/sendNode and transport-style Send.
func isSendLike(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return name == "send" || name == "sendNode" || name == "Send"
}

// replyTypeName returns the named struct type of e when its name ends
// in Reply or Ack (through one pointer), else "".
func replyTypeName(info *types.Info, e ast.Expr) string {
	t := info.Types[e].Type
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	name := named.Obj().Name()
	if strings.HasSuffix(name, "Reply") || strings.HasSuffix(name, "Ack") {
		return name
	}
	return ""
}

// resolveComposite finds the composite literal behind a message
// argument: the literal itself, &literal, or an identifier assigned
// exactly one literal in the unit.
func (st *ackState) resolveComposite(u *flow.Unit, e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if lit, ok := e.X.(*ast.CompositeLit); ok {
				return lit
			}
		}
	case *ast.Ident:
		obj := st.pass.Info.Uses[e]
		if obj == nil {
			return nil
		}
		var lit *ast.CompositeLit
		count := 0
		ast.Inspect(u.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				def := st.pass.Info.Defs[id]
				if def == nil {
					def = st.pass.Info.Uses[id]
				}
				if def != obj {
					continue
				}
				count++
				lit = st.resolveLit(as.Rhs[i])
			}
			return true
		})
		if count == 1 {
			return lit
		}
	}
	return nil
}

func (st *ackState) resolveLit(e ast.Expr) *ast.CompositeLit {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if lit, ok := e.X.(*ast.CompositeLit); ok {
				return lit
			}
		}
	}
	return nil
}

// isStOK reports whether e names the success status constant.
func isStOK(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "StOK"
	case *ast.SelectorExpr:
		return e.Sel.Name == "StOK"
	}
	return false
}

// classify builds the ordered event lists of one unit's CFG nodes.
func (st *ackState) classify(u *flow.Unit) map[*flow.Node][]ackEvent {
	info := st.pass.Info
	out := map[*flow.Node][]ackEvent{}
	for _, n := range u.Graph.Nodes {
		var evs []ackEvent
		flow.ScanNode(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			base := ackEvent{
				pos:    call.Pos(),
				ord:    call.End(),
				exempt: st.pass.directiveEnabled("ackok") && st.pass.lineDirective(call.Pos(), "ackok"),
			}

			// Barrier primitives win outright: the call IS the barrier.
			if cls, ok := barrierPrimitive(info, call); ok {
				e := base
				e.kind = evBarrier
				e.class = cls
				evs = append(evs, e)
				return true
			}

			// Ack primitives: a send-like call with a succeeding
			// reply/ack message.
			if msg, status := st.replyArg(u, call); msg != "" {
				success := true
				if status != nil {
					switch {
					case isStOK(status):
						success = true
					case info.Types[status].Value != nil:
						success = false // a non-OK constant: an error reply
					case st.paramIndex(u, status) >= 0:
						// Forwarded status: the emission materializes at
						// call sites passing StOK (computeForwarding).
						success = false
					default:
						success = true // computed status: conservative
					}
				}
				if success {
					e := base
					e.kind = evAck
					e.label = msg
					evs = append(evs, e)
					return true
				}
				return true
			}

			// Same-package calls carry their callee summaries; a call
			// filling a forwarding parameter with StOK is an emission
			// here.
			callees := st.cg.Callees(call)
			if len(callees) > 0 {
				for _, v := range callees {
					for i := range st.fwd[v] {
						if i < len(call.Args) && st.statusArgAcks(u, call.Args[i]) {
							e := base
							e.kind = evAck
							e.label = "a success reply via " + v.Name
							evs = append(evs, e)
						}
					}
				}
				e := base
				e.kind = evCall
				e.callees = callees
				e.label = calleeLabel(call)
				evs = append(evs, e)
			}
			return true
		})
		if len(evs) > 0 {
			// Nested calls execute before their callers: order by end
			// position.
			for i := 1; i < len(evs); i++ {
				for j := i; j > 0 && evs[j].ord < evs[j-1].ord; j-- {
					evs[j], evs[j-1] = evs[j-1], evs[j]
				}
			}
			out[n] = evs
		}
	}
	return out
}

// statusArgAcks classifies an argument filling a forwarding status
// parameter: StOK is an ack, another constant is an error reply, a
// forwarded parameter is handled by the fwd fixpoint, anything
// computed is conservatively an ack.
func (st *ackState) statusArgAcks(u *flow.Unit, arg ast.Expr) bool {
	if isStOK(arg) {
		return true
	}
	if st.pass.Info.Types[arg].Value != nil {
		return false
	}
	if st.paramIndex(u, arg) >= 0 {
		return false
	}
	return true
}

// barrierPrimitive classifies a call as a quorum or persist barrier.
func barrierPrimitive(info *types.Info, call *ast.CallExpr) ([numClasses]bool, bool) {
	var cls [numClasses]bool
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return cls, false
	}
	switch {
	case name == "quorumAcks":
		cls[clsQuorum] = true
		return cls, true
	case name == "Open" || name == "Ack":
		// Quorum bookkeeping methods on the replication tracker.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && typeNameContains(s.Recv(), "Tracker") {
				cls[clsQuorum] = true
				return cls, true
			}
		}
	case strings.HasPrefix(name, "persist") || name == "SyncDurable":
		cls[clsPersist] = true
		return cls, true
	}
	if fn := flow.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && durablePkgs[fn.Pkg().Path()] {
		cls[clsPersist] = true
		return cls, true
	}
	return cls, false
}

func typeNameContains(t types.Type, frag string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.Contains(named.Obj().Name(), frag)
}

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

// barrierish reports whether executing e completes a class-c barrier:
// a primitive barrier, or a call every candidate callee of which
// passes the barrier on every path.
func (st *ackState) barrierish(e ackEvent, c int) bool {
	switch e.kind {
	case evBarrier:
		return e.class[c]
	case evCall:
		if len(e.callees) == 0 {
			return false
		}
		for _, v := range e.callees {
			if !st.barrierAll[v][c] {
				return false
			}
		}
		return true
	}
	return false
}

// ackish reports whether executing e can emit a bare class-c ack.
func (st *ackState) ackish(e ackEvent, c int) bool {
	if e.exempt {
		return false
	}
	switch e.kind {
	case evAck:
		return true
	case evCall:
		for _, v := range e.callees {
			if st.bareAck[v][c] {
				return true
			}
		}
	}
	return false
}

// nodeBarrier reports whether flowing THROUGH n passes a class-c
// barrier.
func (st *ackState) nodeBarrier(u *flow.Unit, n *flow.Node, c int) bool {
	for _, e := range st.events[u][n] {
		if st.barrierish(e, c) {
			return true
		}
	}
	return false
}

// eachBareEvent visits, in order, every event of u reachable from its
// entry before a class-c barrier.
func (st *ackState) eachBareEvent(u *flow.Unit, c int, fn func(ackEvent)) {
	reach := u.Graph.ReachableAvoiding(u.Graph.Entry, func(n *flow.Node) bool {
		return st.nodeBarrier(u, n, c)
	})
	for n := range reach {
		for _, e := range st.events[u][n] {
			// The event is visited before a barrier check: a callee can
			// emit a bare ack AND pass the barrier on every path, and
			// the emission still precedes the barrier.
			fn(e)
			if st.barrierish(e, c) {
				break // events after the barrier are guarded
			}
		}
	}
}

func (st *ackState) fixBarrierAll() {
	for changed := true; changed; {
		changed = false
		for _, u := range st.cg.Units {
			for c := 0; c < numClasses; c++ {
				if st.barrierAll[u][c] {
					continue
				}
				if u.Graph.AllPathsPass(func(n *flow.Node) bool { return st.nodeBarrier(u, n, c) }) {
					st.barrierAll[u][c] = true
					changed = true
				}
			}
		}
	}
}

func (st *ackState) fixBareAck() {
	for changed := true; changed; {
		changed = false
		for _, u := range st.cg.Units {
			for c := 0; c < numClasses; c++ {
				if st.bareAck[u][c] {
					continue
				}
				found := false
				st.eachBareEvent(u, c, func(e ackEvent) {
					if st.ackish(e, c) {
						found = true
					}
				})
				if found {
					st.bareAck[u][c] = true
					changed = true
				}
			}
		}
	}
}

package flow

// ReachableAvoiding returns every node reachable from start without
// flowing THROUGH a node for which stop returns true. A stopping node
// is itself included in the result — control reaches it and executes
// its events up to the stopping one — but its successors are not
// explored. With a nil stop this is plain reachability.
func (g *Graph) ReachableAvoiding(start *Node, stop func(*Node) bool) map[*Node]bool {
	seen := map[*Node]bool{}
	stack := []*Node{start}
	seen[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stop != nil && stop(n) {
			continue
		}
		for _, s := range n.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// ExitReachable reports whether the function can terminate: Exit is
// reachable from Entry. False means every execution loops (or blocks)
// forever — the goroutinelife "no shutdown path" condition.
func (g *Graph) ExitReachable() bool {
	return g.ReachableAvoiding(g.Entry, nil)[g.Exit]
}

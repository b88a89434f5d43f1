package cfg

// Dominators exposes the immediate-dominator map to the external test
// package, which checks the analysis NaturalLoops runs on.
func (g *Graph) Dominators() map[int]int {
	idom, _, _ := g.dominators()
	return idom
}

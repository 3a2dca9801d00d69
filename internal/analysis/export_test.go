package analysis

// Lookup returns the node with the given stable name, or nil.
func (g *CallGraph) Lookup(name string) *FuncNode { return g.byName[name] }

// Callees returns n's direct callees, sorted by name.
func (g *CallGraph) Callees(n *FuncNode) []*FuncNode { return g.callees[n] }

package flow

import "go/ast"

// The forward dataflow engine: facts are small sets over a comparable key
// type (a lock identity, a dirty store receiver), the transfer function is
// per-node gen/kill, and joins union facts — a MAY analysis: a fact holds
// at a point if it holds on ANY path there, which is the conservative
// direction for "is a lock possibly held" and "is a write possibly
// unflushed". The worklist iterates to fixpoint; with union joins and
// monotone per-node transfers over finite key sets, termination is
// guaranteed.

// Facts is one dataflow fact set.
type Facts[K comparable] map[K]bool

// Clone returns an independent copy of f.
func (f Facts[K]) Clone() Facts[K] {
	out := make(Facts[K], len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

// union adds g's facts into f, reporting whether f changed.
func (f Facts[K]) union(g Facts[K]) bool {
	changed := false
	for k := range g {
		if !f[k] {
			f[k] = true
			changed = true
		}
	}
	return changed
}

// Transfer applies one node's gen/kill effect to facts IN PLACE and
// returns the updated set (returning a different map is also allowed).
type Transfer[K comparable] func(n ast.Node, facts Facts[K]) Facts[K]

// Forward runs transfer over g to fixpoint and returns each block's entry
// fact set. Blocks unreachable from Entry are absent from the result: no
// path reaches them, so no fact holds there. Callers that need per-node
// facts replay transfer over a block's Nodes starting from its entry set —
// the same fold Forward itself uses, so the replay is exact.
func Forward[K comparable](g *Graph, entry Facts[K], transfer Transfer[K]) map[*Block]Facts[K] {
	in := make(map[*Block]Facts[K], len(g.Blocks))
	in[g.Entry] = entry.Clone()

	// Worklist seeded in block order; Index order keeps the iteration — and
	// with it any diagnostic ordering derived from it — deterministic.
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out := in[b].Clone()
		for _, n := range b.Nodes {
			out = transfer(n, out)
		}
		for _, s := range b.Succs {
			have, ok := in[s]
			if !ok {
				in[s] = out.Clone()
			} else if !have.union(out) {
				continue
			}
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

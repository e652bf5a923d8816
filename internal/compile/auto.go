// Automorphism groups of compiled tables, powering search-time symmetry
// reduction.
//
// An automorphism is a pair of relabelings (π over state indices, σ over
// op indices) under which the table is invariant:
//
//	next[π(s), σ(o)] = π(next[s, o])    for every (s, o)
//	resp[π(s), σ(o)] = resp[s, o]       (responses preserved EXACTLY)
//	π(inits) = inits                    (initial-state set fixed setwise)
//
// Exact response preservation (rather than preservation up to renaming)
// is what makes the reduction sound for the n-discerning property, whose
// R-sets contain concrete (response, state) pairs: relabeling a witness
// by an automorphism maps its Q/R sets through π while leaving every
// response untouched, so all three recording conditions and the
// discerning disjointness condition hold for the witness iff they hold
// for its relabeling. Witness-search shards in the same orbit therefore
// contain witnesses iff their orbit-mates do, and all but the first
// shard of each orbit can be skipped without changing any verdict — see
// engine's symmetric-shard pruning for the determinism argument.
package compile

import (
	"bytes"

	"rcons/internal/atlas"
)

// Caps on the brute-force automorphism search. The candidate space is
// states! × ops!; beyond these bounds Automorphisms reports the trivial
// group, which simply disables symmetry pruning.
const (
	autoMaxStates = 7
	autoMaxOps    = 6
	autoMaxCombos = 250000
)

// Element is one automorphism: State[s] is the relabeled index of state
// s, Op[o] the relabeled index of op o.
type Element struct {
	State []int
	Op    []int
}

// Group is the automorphism group of a compiled table. The identity is
// always elems[0]; a group of size 1 is trivial and disables pruning.
type Group struct {
	elems []Element
}

// Size returns the group order (≥ 1; the identity is always present).
func (g *Group) Size() int { return len(g.elems) }

// Nontrivial reports whether the group contains a non-identity element —
// the gate for all symmetry pruning.
func (g *Group) Nontrivial() bool { return len(g.elems) > 1 }

// Elements returns the group's elements, identity first. Callers must
// not mutate the returned slices.
func (g *Group) Elements() []Element { return g.elems }

// Automorphisms returns the table's automorphism group, computing it on
// first use and caching it. Tables beyond the brute-force caps get the
// trivial group (sound: pruning just never activates). A table rebuilt
// by Reset computes its group into the previous one's storage.
func (c *Compiled) Automorphisms() *Group {
	c.autoOnce.Do(func() { c.auto = c.computeAutomorphisms(c.auto) })
	return c.auto
}

// computeAutomorphisms fills g, or a new group when g is nil, with the
// table's group.
func (c *Compiled) computeAutomorphisms(g *Group) *Group {
	if g == nil {
		g = new(Group)
	}
	S, O := len(c.states), len(c.ops)
	if S > autoMaxStates || O > autoMaxOps {
		g.elems = append(g.elems[:0], Element{State: identityPerm(S), Op: identityPerm(O)})
		return g
	}
	statePerms := atlas.Permutations(S)
	opPerms := atlas.Permutations(O)
	if len(statePerms)*len(opPerms) > autoMaxCombos {
		// The lexicographically first permutations are the identities.
		g.elems = append(g.elems[:0], Element{State: statePerms[0], Op: opPerms[0]})
		return g
	}
	var inits uint64 // bit s is set for an initial state s; S ≤ autoMaxStates
	for _, i := range c.inits {
		inits |= 1 << i
	}
	g.elems = g.elems[:0]
	for _, ps := range statePerms {
		if !preservesInits(ps, inits) {
			continue
		}
		for _, po := range opPerms {
			if c.isAutomorphism(ps, po) {
				g.elems = append(g.elems, Element{State: ps, Op: po})
			}
		}
	}
	// atlas.Permutations is lexicographic, so the identity pair is the
	// first accepted element by construction.
	return g
}

// preservesInits reports whether ps maps the initial-state set, a bit
// per state, onto itself.
func preservesInits(ps []int, inits uint64) bool {
	for s, p := range ps {
		if inits&(1<<s) != 0 && inits&(1<<p) == 0 {
			return false
		}
	}
	return true
}

// isAutomorphism checks table invariance under (ps, po).
func (c *Compiled) isAutomorphism(ps, po []int) bool {
	O := len(c.ops)
	for s := range c.states {
		for o := range c.ops {
			k := s*O + o
			pk := ps[s]*O + po[o]
			if int(c.nextTab[pk]) != ps[c.nextTab[k]] || c.respTab[pk] != c.respTab[k] {
				return false
			}
		}
	}
	return true
}

func identityPerm(k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// ShardKey identifies a witness shard's orbit: two bytes for the
// initial state, then two per op for the team-A counts.
type ShardKey [2 + 2*autoMaxOps]byte

// CanonicalShardKey returns a key identifying the orbit of the witness
// shard (q0, team-A op multiset) under the group: the lexicographically
// minimal encoding of (π(q0), counts∘σ⁻¹) over all group elements. Two
// shards get the same key exactly when some automorphism maps one to
// the other; keeping only the first shard of each orbit preserves every
// search verdict. counts must have NumOps entries (the per-op team-A
// multiplicities in table op order), and a nontrivial group's table has
// at most autoMaxOps ops.
func (g *Group) CanonicalShardKey(q0 uint16, counts []int) ShardKey {
	var cand, best ShardKey
	for i, el := range g.elems {
		q := el.State[q0]
		cand[0], cand[1] = byte(q), byte(q>>8)
		for o, c := range counts {
			no := el.Op[o]
			cand[2+2*no], cand[3+2*no] = byte(c), byte(c>>8)
		}
		if i == 0 || bytes.Compare(cand[:], best[:]) < 0 {
			best = cand
		}
	}
	return best
}

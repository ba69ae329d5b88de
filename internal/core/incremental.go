package core

import "mpx/internal/graph"

// This file is the incremental side of the partition: an O(batch)
// verification that an edge-update batch leaves the decomposition's
// fixpoint untouched, so the hierarchy engine (internal/hier) can reuse a
// level verbatim instead of re-deriving it.
//
// Soundness rests on three facts (docs/determinism.md §"Incremental
// re-derivation"):
//
//  1. The shift plan — shifts, δ_max, start buckets, and the tie-break
//     rank order — is a function of (n, β, seed, TieBreak, ShiftSource)
//     ONLY. Edges never enter its derivation, so a batch cannot change it.
//     (Partition stores ranks for vertices with edges only, but the order
//     among them is the order over all vertices, and rankLess recomputes
//     it for any pair.)
//
//  2. The output (Center, Dist, Parent) is the unique fixpoint of the
//     round-synchronous claim recurrence: vertex w is claimed at round
//     level(w) = min(bucket[w], 1 + min over neighbors v of level(v))
//     by the minimum packed key (rank[Center[p]], p) among the round's
//     proposers p (its own self-proposal included when bucket[w] ==
//     level(w)). The fixpoint is independent of direction and schedule.
//
//  3. The recurrence is inductive over rounds: round t's claims depend
//     only on claims of rounds < t. An edge change therefore alters the
//     output iff it alters some vertex's proposal set at its claim round
//     in a way that moves the minimum — which is checkable per edge in
//     O(1) given the retained plan.
//
// Per edge {u, v} with claim rounds level(u) <= level(v):
//
//   - Delete: the edge carried a proposal only from u to v at round
//     level(u)+1 (adjacent vertices differ by at most one round, and
//     equal-round neighbors never propose to each other). That proposal
//     was the winner iff Parent[v] == u; removing a non-winning proposal
//     leaves every round's minimum — and hence the whole fixpoint —
//     unchanged. Symmetrically for Parent[u] == v.
//
//   - Insert: the new edge injects a proposal from u to v at round
//     level(u)+1. If level(v) > level(u)+1, v would now be claimed
//     earlier: changed. If level(v) == level(u)+1, the proposal key
//     (rank[Center[u]], u) joins v's claim-round candidate set: changed
//     iff it beats the incumbent winner key (rank[Center[v]], Parent[v])
//     (keys are unique — the proposer id is in the low bits). If
//     level(v) <= level(u), v is claimed no later than u, so the new
//     proposal arrives after v's claim round and changes nothing; u is
//     likewise unaffected since v's proposals reach it no earlier than
//     round level(u)+1.
//
// The check is exact for the cases it accepts and conservative overall:
// UnchangedUnder may answer false for a batch that happens to preserve
// the output (it never inspects beyond one step), but an answer of true
// guarantees bit-identical (Center, Dist, Parent) and an identical round
// schedule (Rounds) on the updated graph. Work counters (Relaxed) are
// schedule metrics, not fixpoint output, and do differ.

// HasPlan reports whether this decomposition retained its shift plan and
// is eligible for UnchangedUnder: built by the unweighted parallel
// Partition, with Shifts still in place.
func (d *Decomposition) HasPlan() bool {
	return d.bucket != nil && d.Shifts != nil
}

// claimLevel returns the BFS round at which v was claimed: its distance
// from its center plus the center's start round.
func (d *Decomposition) claimLevel(v uint32) int32 {
	return d.Dist[v] + d.bucket[d.Center[v]]
}

// rankLess reports whether center a's tie-break rank is below center b's.
// Under TieFractional the rank order is the (fractional-part bits, id)
// order, recomputed here from the retained shifts through startRound:
// Partition ranks only vertices with edges, and an insert may touch a
// vertex that had none.
func (d *Decomposition) rankLess(a, b uint32) bool {
	if d.perm != nil {
		return d.perm[a] < d.perm[b]
	}
	_, fa := startRound(d.DeltaMax, d.Shifts[a])
	_, fb := startRound(d.DeltaMax, d.Shifts[b])
	return fa < fb || fa == fb && a < b
}

// UnchangedUnder reports whether applying the given effective edge
// changes (canonical inserts and deletes, as produced by
// graph.ApplyBatch) to d.G provably leaves the decomposition bit-identical:
// re-running Partition on the updated graph with the same (β, seed,
// options) would reproduce Center, Dist, Parent, Shifts, DeltaMax and
// Rounds exactly. A false answer means "could not verify in one step" —
// the caller must re-derive — never "definitely changed".
//
// Requires HasPlan; returns false otherwise. Self loops are ignored.
// Inserts must be absent from d.G and deletes present in it (pass
// ApplyResult's effective lists, not the raw batch).
func (d *Decomposition) UnchangedUnder(ins, del []graph.Edge) bool {
	if !d.HasPlan() {
		return false
	}
	for _, e := range del {
		if e.U == e.V {
			continue
		}
		// A deleted support (BFS-tree) edge removes its target's winning
		// proposal; anything else removed a loser or no proposal at all.
		if d.Parent[e.U] == e.V || d.Parent[e.V] == e.U {
			return false
		}
	}
	for _, e := range ins {
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		lu, lv := d.claimLevel(u), d.claimLevel(v)
		if lu > lv {
			u, v = v, u
			lu, lv = lv, lu
		}
		if lv-lu >= 2 {
			return false // v would be claimed earlier through the new edge
		}
		if lv-lu == 1 {
			// u proposes (rank[Center[u]], u) at v's claim round; unchanged
			// only if the incumbent winner (rank[Center[v]], Parent[v]) —
			// for a center, its self-proposal — still holds the minimum key.
			cu, cv := d.Center[u], d.Center[v]
			if cu == cv && u < d.Parent[v] || cu != cv && d.rankLess(cu, cv) {
				return false
			}
		}
	}
	return true
}

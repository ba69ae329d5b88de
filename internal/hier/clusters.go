package hier

// ClusterMaps exports the hierarchy's cluster structure as flat per-level
// lookup arrays for query serving: out[l][v] is the id of the level-l
// cluster containing base-graph vertex v, where the id is the cluster's
// center vertex in level-l graph coordinates (original ids in residual
// mode, whose levels keep the vertex set). The maps are computed by
// composing the retained quotient maps once, level by level, on the
// configured pool — O(levels · n) total, after which a membership query is
// a single array load.
//
// The returned arrays are shared and read-only: the hierarchy caches them
// (one flat backing block) and returns the same arrays until an UpdateCtx
// re-derives a level (a weighted update with any effective change
// re-derives every level). An update that only refreshes levels cannot
// move a map: a verified partition keeps its centers, and UpdateCtx
// guards the quotient numbering, so the cached arrays already describe
// the updated hierarchy. A re-derivation drops the cache, and the next
// call composes new arrays; the old ones are never written, so an export
// taken before an update keeps describing the hierarchy as of that call.
// Values are pure integer map folds of retained state, hence bit-identical
// at every worker count.
func (h *Hierarchy) ClusterMaps() [][]uint32 {
	if h.maps != nil {
		return h.maps
	}
	cfg := h.eng.cfg
	levels := len(h.levels)
	if levels == 0 {
		return nil
	}
	n0 := h.levels[0].g.NumVertices()
	out := make([][]uint32, levels)
	flat := make([]uint32, levels*n0)
	// cur[v] is base vertex v's representative in the CURRENT level's graph
	// coordinates; contract mode folds each level's quotient map into it,
	// residual mode keeps the identity (levels share the vertex set).
	cur := make([]uint32, n0)
	cfg.Pool.ForRange(cfg.Workers, n0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			cur[v] = uint32(v)
		}
	})
	for l := 0; l < levels; l++ {
		st := &h.levels[l]
		center := st.center()
		row := flat[l*n0 : (l+1)*n0 : (l+1)*n0]
		out[l] = row
		quot := st.quot
		cfg.Pool.ForRange(cfg.Workers, n0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				c := cur[v]
				row[v] = center[c]
				if quot != nil {
					cur[v] = quot[c]
				}
			}
		})
	}
	h.maps = out
	return out
}

package parallel

// Pool-parallel LSD radix sorts on uint64 keys, the one sorting substrate
// of the stack. The hierarchy engine packs quotient-edge keys into 64 bits
// ((qu << 32) | qv), so deduplicating and ordering contracted edges is a
// byte-at-a-time radix sort instead of a comparison sort, and core's
// tie-break ranks are one SortPairs over the IEEE bits of the shifts'
// fractional parts with the vertex ids as payloads.
//
// Both sorts are deterministic at every worker count: each pass counts
// bytes with one histogram per contiguous worker block, turns the
// histograms into per-(byte, worker) start offsets with an exclusive scan
// in (byte, worker) order, and scatters the blocks in order, so keys with
// equal bytes land exactly in their pre-pass order. Every pass is
// therefore the same stable counting sort the serial loop performs, and
// the output is identical at workers 1, 2, 8, ... Passes whose byte is
// constant across all keys are skipped outright (for packed (qu, qv) keys
// of a small quotient graph most of the eight passes skip).

// sortGrain is the input size below which the radix passes run serially;
// it matches the shared CompactCutoff so the whole stack switches to
// parallel execution at one size.
const sortGrain = CompactCutoff

// SortUint64 sorts keys ascending in place. scratch must be nil or have
// length >= len(keys); passing a reused buffer makes steady-state calls
// allocation-free. The contents of scratch are unspecified afterwards.
func (p *Pool) SortUint64(workers int, keys []uint64, scratch []uint64) {
	p = p.orDefault()
	n := len(keys)
	if n < 2 {
		return
	}
	if len(scratch) < n {
		scratch = make([]uint64, n)
	}
	radixSort64(p, workers, keys, scratch[:n], nil, nil)
}

// SortPairs stably sorts the records (keys[i], vals[i]) by key ascending,
// permuting both slices in place; records with equal keys keep their
// original relative order. keyScratch/valScratch must be nil or at least
// len(keys) long. len(vals) must equal len(keys); a mismatch panics with
// "parallel: SortPairs key/value length mismatch" (a silent truncation
// would desynchronize keys from their payloads).
func (p *Pool) SortPairs(workers int, keys []uint64, vals []uint32, keyScratch []uint64, valScratch []uint32) {
	p = p.orDefault()
	n := len(keys)
	if len(vals) != n {
		panic("parallel: SortPairs key/value length mismatch")
	}
	if n < 2 {
		return
	}
	if len(keyScratch) < n {
		keyScratch = make([]uint64, n)
	}
	if len(valScratch) < n {
		valScratch = make([]uint32, n)
	}
	radixSort64(p, workers, keys, keyScratch[:n], vals, valScratch[:n])
}

// radixSort64 runs the shared LSD passes. vals may be nil (key-only sort).
// The sorted sequence always ends up back in keys/vals: the pass parity is
// tracked and a final parallel copy runs only when the ping-pong ended in
// the scratch buffers.
func radixSort64(p *Pool, workers int, keys, keyTmp []uint64, vals, valTmp []uint32) {
	n := len(keys)
	srcK, dstK := keys, keyTmp
	srcV, dstV := vals, valTmp
	w := Workers(workers, n)
	if w == 1 || n < sortGrain {
		var count [256]int
		for shift := uint(0); shift < 64; shift += 8 {
			for b := range count {
				count[b] = 0
			}
			for _, k := range srcK {
				count[(k>>shift)&0xff]++
			}
			if count[(srcK[0]>>shift)&0xff] == n {
				continue // every key shares this byte; the pass is a no-op
			}
			pos := 0
			for b := 0; b < 256; b++ {
				c := count[b]
				count[b] = pos
				pos += c
			}
			if srcV == nil {
				for _, k := range srcK {
					b := (k >> shift) & 0xff
					dstK[count[b]] = k
					count[b]++
				}
			} else {
				for i, k := range srcK {
					b := (k >> shift) & 0xff
					j := count[b]
					count[b]++
					dstK[j] = k
					dstV[j] = srcV[i]
				}
			}
			srcK, dstK = dstK, srcK
			srcV, dstV = dstV, srcV
		}
	} else {
		counts := make([]int, w*256)
		totals := make([]int, 256)
		for shift := uint(0); shift < 64; shift += 8 {
			sk := srcK
			p.Run(w, func(k int) {
				lo, hi := k*n/w, (k+1)*n/w
				c := counts[k*256 : (k+1)*256]
				for b := range c {
					c[b] = 0
				}
				for _, key := range sk[lo:hi] {
					c[(key>>shift)&0xff]++
				}
			})
			for b := range totals {
				totals[b] = 0
			}
			for k := 0; k < w; k++ {
				c := counts[k*256 : (k+1)*256]
				for b := 0; b < 256; b++ {
					totals[b] += c[b]
				}
			}
			if totals[(sk[0]>>shift)&0xff] == n {
				continue // same skip rule as the serial passes
			}
			// Exclusive scan in (byte, worker) order: counts[k*256+b]
			// becomes the destination offset of worker k's first key
			// carrying byte b.
			pos := 0
			for b := 0; b < 256; b++ {
				for k := 0; k < w; k++ {
					c := counts[k*256+b]
					counts[k*256+b] = pos
					pos += c
				}
			}
			sv, dk, dv := srcV, dstK, dstV
			p.Run(w, func(k int) {
				lo, hi := k*n/w, (k+1)*n/w
				c := counts[k*256 : (k+1)*256]
				if sv == nil {
					for i := lo; i < hi; i++ {
						key := sk[i]
						b := (key >> shift) & 0xff
						dk[c[b]] = key
						c[b]++
					}
				} else {
					for i := lo; i < hi; i++ {
						key := sk[i]
						b := (key >> shift) & 0xff
						j := c[b]
						c[b]++
						dk[j] = key
						dv[j] = sv[i]
					}
				}
			})
			srcK, dstK = dstK, srcK
			srcV, dstV = dstV, srcV
		}
	}
	if &srcK[0] != &keys[0] {
		p.ForRange(workers, n, func(lo, hi int) {
			copy(keys[lo:hi], srcK[lo:hi])
			if vals != nil {
				copy(vals[lo:hi], srcV[lo:hi])
			}
		})
	}
}

// Grow returns s with length n, reusing the backing array when capacity
// allows — the generic companion of GrowUint32 for scratch buffers of any
// element type. New capacity is not zeroed beyond Go's allocation zeroing.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

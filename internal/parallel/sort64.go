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
// therefore the same stable counting sort at every block count, and the
// output is identical at workers 1, 2, 8, ... Passes whose byte is
// constant across all keys are skipped outright (for packed (qu, qv) keys
// of a small quotient graph most of the eight passes skip).

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
// the scratch buffers. One block (a small input) is the w = 1 case of the
// same passes: its histogram is the byte totals, on the stack, and its
// passes are plain calls rather than submitted closures.
func radixSort64(p *Pool, workers int, keys, keyTmp []uint64, vals, valTmp []uint32) {
	n := len(keys)
	w := Blocks(workers, n)
	var totals [256]int
	var counts []int // w > 1: block k's histogram is counts[k*256 : (k+1)*256]
	if w > 1 {
		counts = make([]int, w*256)
	}
	srcK, dstK := keys, keyTmp
	srcV, dstV := vals, valTmp
	for shift := uint(0); shift < 64; shift += 8 {
		// Per-pass copies, which the block closures capture by value.
		sk, sv, dk, dv, c := srcK, srcV, dstK, dstV, counts
		if w == 1 {
			countBytes(sk, shift, &totals)
		} else {
			p.ForBlocks(w, n, func(k, lo, hi int) {
				countBytes(sk[lo:hi], shift, (*[256]int)(c[k*256:]))
			})
			totals = [256]int{}
			for k := 0; k < w; k++ {
				for b, x := range c[k*256 : (k+1)*256] {
					totals[b] += x
				}
			}
		}
		if totals[(sk[0]>>shift)&0xff] == n {
			continue // every key shares this byte; the pass is a no-op
		}
		if w == 1 {
			scanBytes(totals[:])
			scatterBytes(sk, sv, dk, dv, 0, n, shift, &totals)
		} else {
			scanBytes(c)
			p.ForBlocks(w, n, func(k, lo, hi int) {
				scatterBytes(sk, sv, dk, dv, lo, hi, shift, (*[256]int)(c[k*256:]))
			})
		}
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
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

// countBytes clears c and counts the keys by their byte at shift.
func countBytes(keys []uint64, shift uint, c *[256]int) {
	*c = [256]int{}
	shift &= 63 // tells the compiler the shift is below 64: no over-shift check per key
	for _, key := range keys {
		c[(key>>shift)&0xff]++
	}
}

// scanBytes turns the block histograms, laid out block after block, into
// destination offsets with an exclusive scan in (byte, block) order:
// counts[k*256+b] becomes the position of block k's first key carrying
// byte b.
func scanBytes(counts []int) {
	pos := 0
	for b := 0; b < 256; b++ {
		for i := b; i < len(counts); i += 256 {
			c := counts[i]
			counts[i] = pos
			pos += c
		}
	}
}

// scatterBytes moves the keys of [lo, hi) (and their values, when vals is
// non-nil) to their places by their byte at shift, in order, from the
// block's offsets c.
func scatterBytes(keys []uint64, vals []uint32, dstK []uint64, dstV []uint32, lo, hi int, shift uint, c *[256]int) {
	shift &= 63 // as in countBytes
	if vals == nil {
		for _, key := range keys[lo:hi] {
			b := (key >> shift) & 0xff
			dstK[c[b]] = key
			c[b]++
		}
		return
	}
	for i := lo; i < hi; i++ {
		key := keys[i]
		b := (key >> shift) & 0xff
		j := c[b]
		c[b]++
		dstK[j] = key
		dstV[j] = vals[i]
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

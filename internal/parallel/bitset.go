package parallel

import "sync/atomic"

// Bitset is a bit-packed vertex set over a fixed universe [0, n), backed by
// []uint64 words. Compared with a []bool bitmap it touches 8x less memory
// per sweep and clears in O(n/64) word stores (FillPool over Words).
// Concurrent writers set bits with TrySetAtomic; reads concurrent with
// writes are the caller's responsibility, exactly as with a []bool bitmap.
type Bitset struct {
	words []uint64
}

// NewBitset returns an empty bitset over [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// TrySetAtomic sets bit i atomically and reports whether this call flipped
// it (false when the bit was already set). It is the bit-packed equivalent
// of the CAS claim on an int32 array.
func (b *Bitset) TrySetAtomic(i uint32) bool {
	mask := uint64(1) << (i & 63)
	return atomic.OrUint64(&b.words[i>>6], mask)&mask == 0
}

// Words exposes the backing word array (length (n+63)/64) for word-at-a-
// time consumers such as FillPool; bit i lives at words[i>>6] bit i&63.
func (b *Bitset) Words() []uint64 { return b.words }

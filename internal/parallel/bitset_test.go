package parallel

import (
	"math/bits"
	"sync"
	"testing"
)

// get reports whether bit i of b is set.
func get(b *Bitset, i uint32) bool {
	return b.Words()[i>>6]&(1<<(i&63)) != 0
}

// popcount counts the set bits of b.
func popcount(b *Bitset) int {
	c := 0
	for _, w := range b.Words() {
		c += bits.OnesCount64(w)
	}
	return c
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if len(b.Words()) != 3 || popcount(b) != 0 {
		t.Fatal("fresh bitset not empty")
	}
	for _, i := range []uint32{0, 63, 64, 129} {
		if !b.TrySetAtomic(i) || !get(b, i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if get(b, 1) || get(b, 65) || get(b, 128) {
		t.Fatal("unset bit reads as set")
	}
	if popcount(b) != 4 {
		t.Fatalf("popcount=%d want 4", popcount(b))
	}
	// Bit i lives at words[i>>6] bit i&63.
	if w := b.Words(); w[0] != 1|1<<63 || w[1] != 1 || w[2] != 1<<1 {
		t.Fatalf("word layout %#x", w)
	}
	FillPool(nil, 1, b.Words(), 0)
	if popcount(b) != 0 || get(b, 64) {
		t.Fatal("clearing the words failed")
	}
}

func TestBitsetTrySetAtomic(t *testing.T) {
	b := NewBitset(64)
	if !b.TrySetAtomic(7) {
		t.Fatal("first TrySetAtomic must win")
	}
	if b.TrySetAtomic(7) {
		t.Fatal("second TrySetAtomic must lose")
	}
	if !get(b, 7) {
		t.Fatal("bit not observable")
	}
}

// TestBitsetTrySetAtomicRace hammers one word from many goroutines: each
// bit must be won exactly once.
func TestBitsetTrySetAtomicRace(t *testing.T) {
	const n = 64
	const goroutines = 8
	b := NewBitset(n)
	wins := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for k := 0; k < goroutines; k++ {
		go func(k int) {
			defer wg.Done()
			for i := uint32(0); i < n; i++ {
				if b.TrySetAtomic(i) {
					wins[k] = append(wins[k], i)
				}
			}
		}(k)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += len(w)
	}
	if total != n {
		t.Fatalf("bits won %d times, want %d", total, n)
	}
	if popcount(b) != n {
		t.Fatalf("popcount=%d want %d", popcount(b), n)
	}
}

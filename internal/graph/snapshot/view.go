package snapshot

import (
	"encoding/binary"
	"unsafe"
)

// In-place section views. The on-disk encoding is little-endian, and the
// sections are laid out 8-byte aligned relative to the file start, so on
// a little-endian host with an aligned base pointer (always true for a
// page-aligned mapping or an io.ReadAll buffer) a section can be
// reinterpreted as its typed slice without copying. The fallbacks — a
// big-endian host, or a caller-provided unaligned buffer to Decode —
// decode by copying, preserving correctness everywhere the fast path
// doesn't apply.

// hostLittleEndian reports whether the running machine stores integers
// little-endian, decided once at startup.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// view reinterprets b (length a multiple of T's size) as []T, zero-copy
// when possible.
func view[T int64 | uint32 | float64](b []byte) []T {
	size := int(unsafe.Sizeof(*new(T)))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	_, _ = binary.Decode(b, binary.LittleEndian, out) // cannot fail: b holds n values
	return out
}

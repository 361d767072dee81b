// Package pad is the repository's one cache-line isolation helper.
//
// Two goroutines that write to (or one writes and one reads) different
// words of the same cache line pay a cross-core line transfer on every
// access — false sharing. Which heap objects share a line depends on
// the allocator: same-sized objects allocated back to back by one
// goroutine (every worker's visitor, say, built in one set-up loop) sit
// side by side in one size-class span. Isolated takes a value out of
// that lottery by carrying its own padding.
package pad

// Line is the padding on each side of an isolated value: two 64-byte
// lines, because x86 adjacent-line prefetchers pull lines in aligned
// 128-byte pairs, so a neighbour one line away still bounces.
const Line = 128

// Isolated holds a V that shares no cache line (nor adjacent-line
// pair) with anything else, wherever the allocator places it — as a
// slice element, a struct field, or a heap object of its own.
type Isolated[T any] struct {
	_ [Line]byte
	V T
	_ [Line]byte
}

// New allocates a zero T isolated on the heap. The interior pointer
// keeps the padding alive with the value.
func New[T any]() *T { return &new(Isolated[T]).V }

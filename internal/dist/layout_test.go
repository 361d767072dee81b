package dist

import (
	"testing"
	"unsafe"

	"yewpar/internal/pad"
)

// The loopback network's live-task words: the global count every
// rank's workers update and the per-rank contributions each written by
// one rank's workers. internal/core's layout_test.go covers the rest
// of the cache-line discipline; these fields are only visible here.
func TestLoopbackLiveCountsSitAlone(t *testing.T) {
	ln := NewLoopback(3, LoopbackOptions{})
	defer ln.Close()
	words := []uintptr{uintptr(unsafe.Pointer(&ln.live.V))}
	for i := range ln.liveAt {
		words = append(words, uintptr(unsafe.Pointer(&ln.liveAt[i].V)))
	}
	for i, a := range words {
		for _, b := range words[i+1:] {
			if d := max(a, b) - min(a, b); d < pad.Line+unsafe.Sizeof(ln.live.V) {
				t.Errorf("live-count words %d bytes apart, want a %d-byte pad between them", d, pad.Line)
			}
		}
	}
	// live against its struct neighbours (opts before, done after).
	lo := unsafe.Offsetof(ln.live) + unsafe.Offsetof(ln.live.V)
	if before := lo - (unsafe.Offsetof(ln.trs) + unsafe.Sizeof(ln.trs)); before < pad.Line {
		t.Errorf("live sits %d bytes after the previous field, want >= %d", before, pad.Line)
	}
	if after := unsafe.Offsetof(ln.liveAt) - (lo + unsafe.Sizeof(ln.live.V)); after < pad.Line {
		t.Errorf("live sits %d bytes before the next field, want >= %d", after, pad.Line)
	}
}

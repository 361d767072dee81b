package dist

import (
	"testing"
	"unsafe"

	"yewpar/internal/pad"
)

// The loopback network's live-task count, which every rank's workers
// update, sits alone on its line. internal/core's layout_test.go covers
// the rest of the cache-line discipline; this field is only visible here.
func TestLoopbackLiveCountsSitAlone(t *testing.T) {
	ln := NewLoopback(3, LoopbackOptions{})
	defer ln.Close()
	// live against its struct neighbours (trs before, done after).
	lo := unsafe.Offsetof(ln.live) + unsafe.Offsetof(ln.live.V)
	if before := lo - (unsafe.Offsetof(ln.trs) + unsafe.Sizeof(ln.trs)); before < pad.Line {
		t.Errorf("live sits %d bytes after the previous field, want >= %d", before, pad.Line)
	}
	if after := unsafe.Offsetof(ln.done) - (lo + unsafe.Sizeof(ln.live.V)); after < pad.Line {
		t.Errorf("live sits %d bytes before the next field, want >= %d", after, pad.Line)
	}
}

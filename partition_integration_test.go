package yewpar

// Integration tests of wire protocol v8 link-fault tolerance: a real
// multi-process TCP deployment in which one worker's physical link to
// the coordinator runs through an in-test proxy that can be severed
// and healed on a schedule. A cut shorter than -link-grace must be
// invisible (session resume: deaths=0, nothing replayed, exact
// optimum); a cut longer than the grace must degrade to the v4 death
// path (deaths=1, ledger replay, exact optimum).

import (
	"io"
	"net"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// linkProxy forwards TCP traffic to target and can sever itself: a cut
// closes every tracked connection and makes new dials fail fast
// (accept-then-close) until the scheduled heal.
type linkProxy struct {
	ln      net.Listener
	target  string
	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{}
}

func newLinkProxy(t *testing.T, target string) *linkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	return p
}

func (p *linkProxy) addr() string { return p.ln.Addr().String() }

func (p *linkProxy) serve() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		severed := p.severed
		p.mu.Unlock()
		if severed {
			c.Close()
			continue
		}
		// The worker may dial the proxy before the coordinator is
		// listening (registration retries only the dial, and a dial to
		// the proxy succeeds unconditionally): retry upstream so the
		// accepted connection is not burned on a race the worker could
		// have absorbed itself.
		up, err := p.dialUpstream()
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.severed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		go p.pipe(c, up)
		go p.pipe(up, c)
	}
}

func (p *linkProxy) dialUpstream() (net.Conn, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		up, err := net.Dial("tcp", p.target)
		if err == nil || time.Now().After(deadline) {
			return up, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (p *linkProxy) pipe(dst, src net.Conn) {
	io.Copy(dst, src)
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
	dst.Close()
	src.Close()
}

// cut severs the proxy for d: every live connection dies now, and
// reconnect attempts are turned away until the heal.
func (p *linkProxy) cut(d time.Duration) {
	p.mu.Lock()
	p.severed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	time.AfterFunc(d, func() {
		p.mu.Lock()
		p.severed = false
		p.mu.Unlock()
	})
}

var faultLineRE = regexp.MustCompile(`fault: deaths=(\d+) replayed=(\d+) ledger-peak=\d+ resumes=(\d+)`)

// runPartitionedDeployment launches 1 coordinator + 2 workers, with
// worker "1" reaching the coordinator only through a linkProxy that is
// cut for cutDur shortly after registration. It returns the
// coordinator's output (the coordinator must exit cleanly: even the
// over-grace cut is a survivable single failure).
func runPartitionedDeployment(t *testing.T, bin string, appFlags []string, cutAfter, cutDur time.Duration) string {
	t.Helper()
	addr := freeAddr(t)
	proxy := newLinkProxy(t, addr)

	var workers []*exec.Cmd
	for _, dialAddr := range []string{addr, proxy.addr()} {
		w := exec.Command(bin, append(appFlags, "-dist", "worker", "-dist-addr", dialAddr)...)
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker: %v", err)
		}
		workers = append(workers, w)
	}
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
			w.Wait()
		}
	}()

	ww := &watchWriter{trigger: "all 2 workers registered", arm: func() {
		time.AfterFunc(cutAfter, func() { proxy.cut(cutDur) })
	}}
	coord := exec.Command(bin, append(appFlags, "-dist", "coordinator", "-dist-workers", "2", "-dist-addr", addr)...)
	coord.Stdout = ww
	coord.Stderr = ww
	if err := coord.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator failed across the partition: %v\n%s", err, ww.String())
		}
	case <-time.After(120 * time.Second):
		coord.Process.Kill()
		t.Fatalf("deployment hung across the partition\npartial output:\n%s", ww.String())
	}
	return ww.String()
}

// testPartition runs the partition scenario until the cut provably
// lands mid-search (a fast run can finish inside the arming window —
// scheduling variance, not a bug) and hands the output to verify.
func testPartition(t *testing.T, appFlags []string, cutDur time.Duration, landed func(deaths, replayed, resumes int) bool, verify func(t *testing.T, out string, deaths, replayed, resumes int)) {
	t.Helper()
	bin := yewparBinary(t)
	single, err := exec.Command(bin, appFlags...).CombinedOutput()
	if err != nil {
		t.Fatalf("single-process run failed: %v\n%s", err, single)
	}
	wantAnswer := resultLine(t, string(single))

	for attempt := 1; attempt <= 4; attempt++ {
		out := runPartitionedDeployment(t, bin, appFlags, 250*time.Millisecond, cutDur)
		m := faultLineRE.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no fault stats line in coordinator output:\n%s", out)
		}
		deaths, replayed, resumes := atoi(t, m[1]), atoi(t, m[2]), atoi(t, m[3])
		if !landed(deaths, replayed, resumes) {
			t.Logf("attempt %d: search finished before the cut landed; retrying", attempt)
			continue
		}
		if got := resultLine(t, out); got != wantAnswer {
			t.Fatalf("answer across the partition %q != failure-free answer %q\nfull output:\n%s", got, wantAnswer, out)
		}
		verify(t, out, deaths, replayed, resumes)
		return
	}
	t.Fatal("search finished before the cut landed on every attempt")
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

// A partition shorter than -link-grace is absorbed by a session
// resume: no deaths, no ledger replay, the exact optimum. Only the
// coordinator link runs through the proxy (peer links dial the
// advertised peer addresses directly).
func TestDistributedPartitionHeal(t *testing.T) {
	appFlags := []string{"-app", "maxclique", "-n", "160", "-p", "0.8", "-skeleton", "depthbounded",
		"-d", "2", "-workers", "2", "-link-grace", "2s"}
	testPartition(t, appFlags, 300*time.Millisecond,
		func(deaths, replayed, resumes int) bool { return resumes > 0 || deaths > 0 },
		func(t *testing.T, out string, deaths, replayed, resumes int) {
			if deaths != 0 || replayed != 0 {
				t.Fatalf("sub-grace partition escalated: deaths=%d replayed=%d\n%s", deaths, replayed, out)
			}
			if resumes == 0 {
				t.Fatalf("partition healed without a session resume:\n%s", out)
			}
		})
}

// A partition longer than -link-grace breaks the session and degrades
// to the v4 death path: the severed worker is mourned, its ledger
// entries replay, and the answer is still exact.
func TestDistributedPartitionDeath(t *testing.T) {
	appFlags := []string{"-app", "maxclique", "-n", "160", "-p", "0.8", "-skeleton", "depthbounded",
		"-d", "2", "-workers", "2", "-link-grace", "300ms", "-max-failures", "1"}
	testPartition(t, appFlags, 5*time.Second,
		func(deaths, replayed, resumes int) bool { return deaths > 0 },
		func(t *testing.T, out string, deaths, replayed, resumes int) {
			if deaths != 1 {
				t.Fatalf("over-grace partition recorded deaths=%d, want 1\n%s", deaths, out)
			}
			if !strings.Contains(out, "localities=3") {
				t.Errorf("aggregated stats missing localities=3:\n%s", out)
			}
		})
}

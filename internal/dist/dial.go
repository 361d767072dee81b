package dist

import (
	"fmt"
	"math/rand"
	"net"
	"time"
)

// dialWithRetry dials addr until the timeout, with jittered
// exponential backoff between attempts. This is the one dialer shared
// by registration, peer dials and session resume reconnects: a whole
// deployment's workers racing a slow coordinator launch (or re-reaching
// a listener after a partition) must not stampede it in lockstep.
func dialWithRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 25 * time.Millisecond
	for {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: dialing %s: %w", addr, err)
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
		if backoff < 400*time.Millisecond {
			backoff *= 2
		}
	}
}

// dialRetry dials with the registration window's standard timeout (the
// coordinator may not be listening yet).
func dialRetry(addr string) (net.Conn, error) {
	return dialWithRetry(addr, dialTimeout)
}

// sessionRedialer is the redial hook a dialing-side session uses: one
// bounded attempt per call — redialResume owns the retry loop and the
// grace deadline.
func sessionRedialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
}

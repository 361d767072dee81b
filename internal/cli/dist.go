package cli

import (
	"fmt"
	"io"

	"yewpar/internal/core"
	"yewpar/internal/dist"
)

// checkDist rejects a -dist no deployment can run, before the instance
// is built or a port opened: a coordinator must not sit listening for
// workers only to fail after they register.
func (o *Options) checkDist(coord core.Coordination) error {
	switch {
	case o.Dist == "":
	case o.Dist != "coordinator" && o.Dist != "worker":
		return fmt.Errorf("unknown -dist role %q (want coordinator or worker)", o.Dist)
	case coord == core.Sequential:
		return fmt.Errorf("-dist supports the pool-based skeletons (depthbounded, budget, stacksteal, replicable), not %q", o.Skeleton)
	case !o.app.dist:
		return fmt.Errorf("app %q is not available in -dist mode (supported: %s)", o.App, appNames(" ", true))
	}
	return nil
}

// distSpec canonicalises the options that must agree across all
// processes of a deployment; the registration handshake compares it. A
// file-based instance must also be readable at the same path everywhere
// (the usual shared-filesystem assumption of cluster deployments).
func (o *Options) distSpec() string {
	// The parsed coordination and o.order, not the raw flag strings:
	// "stacksteal" and "stackstealing", or "disc" and "discrepancy", are
	// the same configuration and must not fail the spec handshake.
	coord, _ := ParseSkeleton(o.Skeleton)
	return fmt.Sprintf("app=%s skel=%s order=%s d=%d b=%d f=%s gen=%s n=%d p=%g seed=%d kbound=%d items=%d cities=%d patn=%d uts=%d/%d/%g/%d/%s",
		o.App, coord, o.order, o.DCutoff, o.Budget, o.File, o.Gen, o.N, o.P, o.Seed,
		o.KBound, o.Items, o.Cities, o.PatN, o.UTSB0, o.UTSM, o.UTSQ, o.UTSDepth, o.UTSShape)
}

// connect brings up this process's end of the deployment, the one place
// the two roles differ: a worker dials, the coordinator listens and
// waits for its workers.
func connect(o *Options, w io.Writer) (dist.Transport, error) {
	opts := dist.WireOptions{Standby: o.Standby, LinkGrace: o.LinkGrace}
	if o.Dist == "worker" {
		return dist.DialOpts(o.DistAddr, o.distSpec(), opts)
	}
	opts.RegTimeout = o.RegTimeout
	l, err := dist.NewListenerOpts(o.DistAddr, o.distSpec(), opts)
	if err != nil {
		return nil, fmt.Errorf("dist: listening on %s: %w", o.DistAddr, err)
	}
	fmt.Fprintf(w, "dist: listening on %s, waiting for %d workers\n", l.Addr(), o.DistWorkers)
	tr, err := l.Wait(o.DistWorkers)
	if err != nil {
		l.Close()
		return nil, err
	}
	fmt.Fprintf(w, "dist: all %d workers registered\n", o.DistWorkers)
	return tr, nil
}

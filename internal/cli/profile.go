package cli

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -pprof-addr
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles arms the opt-in profiling hooks and returns a stop
// function that must run after the search finishes (it writes the
// heap and mutex profiles, which snapshot end-of-run state).
//
//   - -cpuprofile starts the sampling CPU profiler for the whole run.
//   - -memprofile writes an allocation profile at exit, after a final
//     GC so live objects dominate over collectable garbage.
//   - -mutexprofile enables contention sampling (every contended
//     acquisition) and writes the profile at exit — the tool of choice
//     for finding hot locks on the wire and pool paths.
//   - -pprof-addr serves net/http/pprof for live inspection; meant for
//     long-running -dist workers, where the files-only flags would
//     force the operator to wait for exit. Errors binding the listener
//     are fatal (a silently dead profile endpoint is worse than none).
//
// All hooks are independent; any subset may be armed.
func startProfiles(o *Options) (stop func() error, err error) {
	var stops []func() error
	stop = func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) (func() error, error) {
		stop()
		return nil, err
	}

	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if o.MemProfile != "" {
		stops = append(stops, func() error {
			runtime.GC()
			return writeProfile("heap", "memprofile", o.MemProfile)
		})
	}
	if o.MutexProfile != "" {
		prev := runtime.SetMutexProfileFraction(1)
		stops = append(stops, func() error {
			runtime.SetMutexProfileFraction(prev)
			return writeProfile("mutex", "mutexprofile", o.MutexProfile)
		})
	}
	if o.PprofAddr != "" {
		ln, err := net.Listen("tcp", o.PprofAddr)
		if err != nil {
			return fail(fmt.Errorf("pprof-addr: %w", err))
		}
		srv := &http.Server{Handler: http.DefaultServeMux}
		go srv.Serve(ln)
		stops = append(stops, func() error {
			return srv.Close()
		})
	}
	return stop, nil
}

// writeProfile writes the named runtime/pprof profile to path; flag names
// the option in an error.
func writeProfile(name, flag, path string) error {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup(name).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", flag, err)
	}
	return nil
}

package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles arms the file-writing profiles whose path is not empty
// and returns a stop function that must run after the work finishes (it
// writes the heap and mutex profiles, which snapshot end-of-run state).
// The yewpar command arms them from its flags.
//
//   - cpu starts the sampling CPU profiler for the whole run.
//   - mem writes an allocation profile at exit, after a final GC so
//     live objects dominate over collectable garbage.
//   - mutex enables contention sampling (every contended acquisition)
//     and writes the profile at exit — the tool of choice for finding
//     hot locks on the wire and pool paths.
//
// All three are independent; any subset may be armed.
func startProfiles(cpu, mem, mutex string) (stop func() error, err error) {
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
	if cpu != "" {
		f, err := os.Create(cpu)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if mem != "" {
		stops = append(stops, func() error {
			runtime.GC()
			return writeProfile("heap", "memprofile", mem)
		})
	}
	if mutex != "" {
		prev := runtime.SetMutexProfileFraction(1)
		stops = append(stops, func() error {
			runtime.SetMutexProfileFraction(prev)
			return writeProfile("mutex", "mutexprofile", mutex)
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

// Package profile gives every command the same three runtime profiling
// flags: -cpuprofile (runtime/pprof's CPU profile), -memprofile (the
// allocation profile, written at exit) and -exectrace (runtime/trace's
// execution trace; -trace is taken by the commands' Chrome traces of the
// simulated timeline). The files read with `go tool pprof` and `go tool
// trace`. A process runs at most one CPU profile and one execution trace,
// so the state is the package's.
package profile

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
)

// Flags holds the three flags' values.
type Flags struct {
	cpu, mem, trace string
}

// Register adds -cpuprofile, -memprofile and -exectrace to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile (go tool pprof) to this file at exit")
	fs.StringVar(&f.trace, "exectrace", "", "write a Go execution trace (go tool trace) to this file")
	return f
}

var (
	mu      sync.Mutex
	running *Flags
	cpuFile *os.File
	trcFile *os.File
)

// Start begins the CPU profile and the execution trace f asks for, and
// arms the allocation profile for Stop. On error nothing is left running.
func (f *Flags) Start() error {
	mu.Lock()
	defer mu.Unlock()
	if running != nil {
		return errors.New("profile: already started")
	}
	if f.cpu != "" {
		file, err := os.Create(f.cpu)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return fmt.Errorf("profile: CPU profile: %w", err)
		}
		cpuFile = file
	}
	if f.trace != "" {
		file, err := os.Create(f.trace)
		if err == nil {
			if err = trace.Start(file); err != nil {
				file.Close()
			}
		}
		if err != nil {
			stopCPU()
			return fmt.Errorf("profile: execution trace: %w", err)
		}
		trcFile = file
	}
	running = f
	return nil
}

// stopCPU ends the CPU profile, if one runs, and closes its file.
func stopCPU() error {
	if cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := cpuFile.Close()
	cpuFile = nil
	return err
}

// Stop ends what Start began and writes the allocation profile. It does
// nothing when nothing was started, so a command may call it on every
// exit path.
func Stop() error {
	mu.Lock()
	defer mu.Unlock()
	if running == nil {
		return nil
	}
	f := running
	running = nil
	errs := []error{stopCPU()}
	if trcFile != nil {
		trace.Stop()
		errs = append(errs, trcFile.Close())
		trcFile = nil
	}
	if f.mem != "" {
		errs = append(errs, writeAllocs(f.mem))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

// writeAllocs writes the allocation profile, after a collection so its
// in-use figures are current.
func writeAllocs(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(file, 0); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Exit stops the profiles, reporting a failure to write them on stderr,
// and exits with code.
func Exit(code int) {
	if err := Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

package profile

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStartStop: the flags register, Stop without Start does nothing, a
// second Start fails, and Stop writes every file asked for once.
func TestStartStop(t *testing.T) {
	if err := Stop(); err != nil {
		t.Fatalf("Stop before Start: %v", err)
	}
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	paths := []string{filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace")}
	if err := fs.Parse([]string{"-cpuprofile", paths[0], "-memprofile", paths[1], "-exectrace", paths[2]}); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Error("a second Start succeeded")
	}
	if err := Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
	if err := Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

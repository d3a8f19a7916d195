package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"compso/internal/xrand"
)

// runMainEnv makes the test binary run the command itself: the profiles
// are written on the way out through os.Exit, which a test may not call.
const runMainEnv = "COMPSO_COMPRESS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestProfilesParse runs compso-compress on a small gradient with all three
// profiling flags and has `go tool pprof` read the CPU and allocation
// profiles back; the execution trace must carry the runtime's header.
func TestProfilesParse(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run pprof with")
	}
	dir := t.TempDir()
	grad := make([]float32, 1<<16)
	xrand.KFACGradient(xrand.NewSeeded(1), grad, 0.114)
	raw := make([]byte, 0, 4*len(grad))
	for _, v := range grad {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
	}
	in := filepath.Join(dir, "grad.f32")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem, trace := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "exec.trace")
	cmd := exec.Command(os.Args[0], "-in", in, "-cpuprofile", cpu, "-memprofile", mem, "-exectrace", trace)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil || !strings.Contains(string(out), "compression ratio") {
		t.Fatalf("compso-compress: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		out, err := exec.Command(goTool, "tool", "pprof", "-raw", p).CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("Samples:")) {
			t.Errorf("go tool pprof -raw %s: %v\n%s", filepath.Base(p), err, out)
		}
	}
	if head, err := os.ReadFile(trace); err != nil || !bytes.HasPrefix(head, []byte("go 1.")) {
		t.Errorf("execution trace: %v, header %q", err, head[:min(len(head), 16)])
	}
}

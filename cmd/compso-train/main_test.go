package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command itself, so its exit
// status can be read.
const runMainEnv = "COMPSO_TRAIN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnknownOptimizer: an -optimizer value other than kfac or sgd
// exits 1 before training, as an unknown -model or -compressor does,
// instead of silently training momentum SGD.
func TestRejectsUnknownOptimizer(t *testing.T) {
	for _, name := range []string{"adam", "kfac-cholesky", "KFAC"} {
		cmd := exec.Command(os.Args[0], "-optimizer", name, "-compressor", "none", "-gpus", "2", "-iters", "1")
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-optimizer %s: %v, want exit status 1\n%s", name, err, out)
		}
		if want := `unknown optimizer "` + name + `"`; !strings.Contains(string(out), want) {
			t.Errorf("-optimizer %s: output lacks %q:\n%s", name, want, out)
		}
	}
}

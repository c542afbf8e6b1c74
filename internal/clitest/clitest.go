// Package clitest tests a command's flag handling end to end: the test
// binary re-executes itself as the command, so a guard that exits the
// process can be checked by exit code and message.
package clitest

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

const runMainEnv = "NTPDDOS_CLITEST_RUN_MAIN"

// Main runs the command's main instead of the tests when the test binary
// was re-executed by Run. Call it from the package's TestMain.
func Main(m *testing.M, main func()) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run executes the command with args in a child process and returns its
// exit code and combined output. A command still running after a minute is
// killed and reported with exit code -1.
func Run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("run %v: %v", args, err)
	return 0, ""
}

// ExpectUsageError runs the command with args and fails the test unless it
// exits 2 naming flag in its message, without a panic.
func ExpectUsageError(t *testing.T, flag string, args ...string) {
	t.Helper()
	code, out := Run(t, args...)
	if code != 2 || !strings.Contains(out, flag) || strings.Contains(out, "panic") {
		t.Errorf("%v: exit %d, output %q; want exit 2 naming %s", args, code, out, flag)
	}
}

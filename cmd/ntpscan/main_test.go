package main

import (
	"strings"
	"testing"

	"ntpddos/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNonPositiveWait(t *testing.T) {
	for _, wait := range []string{"0", "-1s"} {
		clitest.ExpectUsageError(t, "-wait", "-target", "127.0.0.1:9", "-wait", wait)
	}
}

// TestRejectsUnknownMode also requires that the -metrics-addr exporter was
// not started: the mode is checked with the other flags, before it.
func TestRejectsUnknownMode(t *testing.T) {
	clitest.ExpectUsageError(t, "-mode", "-target", "127.0.0.1:9", "-mode", "bogus")
	if _, out := clitest.Run(t, "-target", "127.0.0.1:9", "-mode", "bogus", "-metrics-addr", "127.0.0.1:0"); strings.Contains(out, "serving metrics") {
		t.Errorf("an unknown -mode started the metrics exporter first: %q", out)
	}
}

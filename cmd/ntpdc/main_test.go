package main

import (
	"testing"

	"ntpddos/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNonPositiveWait(t *testing.T) {
	for _, wait := range []string{"0", "-1s"} {
		clitest.ExpectUsageError(t, "-wait", "-wait", wait, "127.0.0.1:9")
	}
}

func TestRejectsUnknownCommand(t *testing.T) {
	clitest.ExpectUsageError(t, "-c", "-c", "bogus", "127.0.0.1:9")
}

package main

import (
	"testing"

	"ntpddos/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		clitest.ExpectUsageError(t, "-scale", "-scale", scale)
	}
}

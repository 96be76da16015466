package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

// TestRunSmoke executes the cluster example end to end. Its output is
// itself an acceptance check for the wire protocol: the sequential
// replay of the distributed run must match exactly.
func TestRunSmoke(t *testing.T) {
	out := testutil.CaptureStdout(t, run)
	for _, want := range []string{
		"wire-protocol workers",
		"exact NE after",
		"sequential engine reproduced the concurrent trajectory exactly",
		"NE=true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unexpected!") {
		t.Errorf("concurrent and sequential trajectories diverged:\n%s", out)
	}
}

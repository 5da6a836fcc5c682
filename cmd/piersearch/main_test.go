package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"piersearch/internal/piersearch"
)

// runMainEnv, when set, makes the test binary behave as the piersearch
// command itself, so a test can observe the real process's exit status.
const runMainEnv = "PIERSEARCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want piersearch.Strategy
	}{{"cache", piersearch.StrategyCache}, {"join", piersearch.StrategyJoin}} {
		got, err := parseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseStrategy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "jion", "Join", "cache "} {
		if _, err := parseStrategy(bad); err == nil {
			t.Errorf("parseStrategy(%q) accepted an unknown strategy", bad)
		}
	}
}

// TestUnknownStrategyIsUsageError runs the command with a typo'd
// -strategy: it must exit with the usage status before starting a node,
// not fall back to the cache plan.
func TestUnknownStrategyIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-strategy", "jion", "-search", "rare demo")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown -strategy "jion"`) {
		t.Errorf("output does not name the bad strategy:\n%s", out)
	}
	if strings.Contains(string(out), "node listening") {
		t.Errorf("a node started despite the usage error:\n%s", out)
	}
}

// TestUnknownLogLevelIsUsageError runs the daemon with a -log-level slog
// does not know: it must exit with the usage status before starting a
// node, not fall back to info.
func TestUnknownLogLevelIsUsageError(t *testing.T) {
	for _, bad := range []string{"bogus", "warning"} {
		cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-log-level", bad)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-log-level %s: exit = %v, want status 2; output:\n%s", bad, err, out)
		}
		if !strings.Contains(string(out), `unknown -log-level "`+bad+`"`) {
			t.Errorf("output does not name the bad level:\n%s", out)
		}
		if strings.Contains(string(out), "node listening") {
			t.Errorf("a node started despite the usage error:\n%s", out)
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureOutput runs fn with stdout and stderr redirected to a file and
// returns what it wrote.
func captureOutput(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = f, f
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// Flag parsing stops at the first non-flag argument, so an argument after
// the flags must be an error, not dropped; and a bad id must fail before
// the ids ahead of it run. Each case would otherwise run an experiment, so
// an empty output shows the error came back before anything started.
func TestBadArgumentsFailBeforeAnythingRuns(t *testing.T) {
	dir := t.TempDir()
	props := filepath.Join(dir, "custom.props")
	if err := os.WriteFile(props, []byte("elastic_testTime = 1\nfirst_con = 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"run", "f9", "-scale", "bench", "bogus-id"}, "bogus-id"},
		{[]string{"run", "f9", "nosuch", "-scale", "bench"}, "nosuch"},
		{[]string{"soak", "-scale", "bench", "-o", dir, "extra"}, "extra"},
		{[]string{"custom", "-props", props, "extra"}, "extra"},
	}
	for _, c := range cases {
		var err error
		out := captureOutput(t, func() { err = run(c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error naming %q", c.args, err, c.want)
		}
		if out != "" {
			t.Errorf("run(%q) printed before failing:\n%s", c.args, out)
		}
	}
}

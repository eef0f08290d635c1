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
	badSlot := filepath.Join(dir, "bad-slot.props")
	if err := os.WriteFile(badSlot, []byte("elastic_testTime = 1\nfirst_con = 5\nslot = 20sec\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	negative := filepath.Join(dir, "negative.props")
	if err := os.WriteFile(negative, []byte("elastic_testTime = 1\nfirst_con = 5\nslot = 2s\ncost_slots = -3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"run", "f9", "-scale", "bench", "bogus-id"}, "bogus-id"},
		{[]string{"run", "f9", "nosuch", "-scale", "bench"}, "nosuch"},
		// An output directory under a regular file cannot be created.
		{[]string{"run", "oltp", "-scale", "bench", "-trace", filepath.Join(props, "trace")}, props},
		{[]string{"run", "soak", "-scale", "bench", "-artifacts", filepath.Join(props, "soak")}, props},
		{[]string{"custom", "-props", props, "extra"}, "extra"},
		{[]string{"custom", "-props", badSlot}, `slot = "20sec"`},
		{[]string{"custom", "-props", negative}, `cost_slots = "-3"`},
		{[]string{"dataset", "-sf", "1", "extra"}, "extra"},
		{[]string{"cost", "-fabric", "infiniband"}, "infiniband"},
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

// The small commands print their model and exit: dataset its scaling table
// and sample rows, cost a price itemized per resource.
func TestDatasetAndCostCommands(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"dataset", "-sf", "2", "-sample", "2"}, []string{
			"SF2 (seed 42)", "orderline       6000000",
			"customer (C_ID,", "orders (O_ID,", "orderline (OL_ID,", "  2,",
		}},
		{[]string{"dataset", "-sample", "0"}, []string{"SF1 (seed 42)", "raw size"}},
		{[]string{"cost", "-fabric", "rdma", "-nodes", "2", "-hours", "2"}, []string{
			"(2 node(s)): 8 vCores", "Gbps rdma", "$ per 2h", "total",
		}},
	}
	for _, c := range cases {
		var err error
		out := captureOutput(t, func() { err = run(c.args) })
		if err != nil {
			t.Fatalf("run(%q): %v", c.args, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("run(%q) output lacks %q:\n%s", c.args, want, out)
			}
		}
	}
	// -sample 0 stops after the scaling model.
	out := captureOutput(t, func() { run([]string{"dataset", "-sample", "0"}) })
	if strings.Contains(out, "C_ID") {
		t.Errorf("dataset -sample 0 printed sample rows:\n%s", out)
	}
}

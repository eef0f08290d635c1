package check

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/storage"
)

// fenceHistory builds a healthy fail-over history: node rw commits under
// epoch 1, the fence advances, node ro0 commits under epoch 2, and a
// straggling rw commit is rejected.
func fenceHistory() *storage.Fence {
	f := storage.NewFence()
	f.SetRecording(true)
	if err := f.CheckCommit(1*time.Second, "rw", 1); err != nil {
		panic(err)
	}
	f.Advance(2 * time.Second)
	if err := f.CheckCommit(3*time.Second, "ro0", 2); err != nil {
		panic(err)
	}
	if err := f.CheckCommit(4*time.Second, "rw", 1); err == nil {
		panic("stale commit not fenced")
	}
	return f
}

func TestFenceInvariantsPassOnHealthyFailover(t *testing.T) {
	for _, v := range FenceVerdicts(fenceHistory()) {
		if !v.Passed {
			t.Errorf("%s: %s", v.Name, v)
		}
		if v.Checked == 0 {
			t.Errorf("%s: checked nothing — the invariant is vacuous", v.Name)
		}
	}
}

func TestNoSplitBrainCatchesDisabledFencing(t *testing.T) {
	// The split-brain history: after the epoch advance the old primary's
	// stale-epoch commit is still acknowledged, as a fence that let stale
	// epochs through would log it.
	events := []storage.FenceEvent{
		{At: 1 * time.Second, Kind: storage.FenceAck, Node: "rw", Epoch: 1, FenceEpoch: 1},
		{At: 2 * time.Second, Kind: storage.FenceAdvance, Epoch: 2, FenceEpoch: 2},
		{At: 3 * time.Second, Kind: storage.FenceAck, Node: "ro0", Epoch: 2, FenceEpoch: 2},
		{At: 4 * time.Second, Kind: storage.FenceAck, Node: "rw", Epoch: 1, FenceEpoch: 2},
	}
	v := NoSplitBrain(events)
	if v.Passed {
		t.Fatal("NoSplitBrain passed on a history with two unfenced primaries")
	}
	if len(v.Details) == 0 || !strings.Contains(v.Details[0], "stale epoch") {
		t.Errorf("violation detail should name the stale-epoch ack, got %q", v.Details)
	}
}

func TestNoSplitBrainCatchesTwoNodesSharingAnEpoch(t *testing.T) {
	events := []storage.FenceEvent{
		{At: 1 * time.Second, Kind: storage.FenceAck, Node: "rw", Epoch: 1, FenceEpoch: 1},
		{At: 2 * time.Second, Kind: storage.FenceAck, Node: "ro0", Epoch: 1, FenceEpoch: 1},
	}
	v := NoSplitBrain(events)
	if v.Passed {
		t.Fatal("NoSplitBrain passed with two nodes acking under one epoch")
	}
}

func TestMonotonicEpochCatchesRegressionAndSkip(t *testing.T) {
	regress := []storage.FenceEvent{
		{At: 1 * time.Second, Kind: storage.FenceAdvance, FenceEpoch: 2},
		{At: 2 * time.Second, Kind: storage.FenceAck, Node: "rw", Epoch: 1, FenceEpoch: 1},
	}
	if v := MonotonicEpoch(regress); v.Passed {
		t.Error("MonotonicEpoch passed on an epoch regression")
	}
	skip := []storage.FenceEvent{
		{At: 1 * time.Second, Kind: storage.FenceAck, Node: "rw", Epoch: 1, FenceEpoch: 1},
		{At: 2 * time.Second, Kind: storage.FenceAdvance, FenceEpoch: 4},
	}
	if v := MonotonicEpoch(skip); v.Passed {
		t.Error("MonotonicEpoch passed on a skipped epoch")
	}
}

func TestFencedWritesCatchesLegitimateWriteFenced(t *testing.T) {
	events := []storage.FenceEvent{
		{At: 1 * time.Second, Kind: storage.FenceReject, Node: "rw", Epoch: 2, FenceEpoch: 2},
	}
	if v := FencedWrites(events); v.Passed {
		t.Error("FencedWrites passed on a current-epoch reject")
	}
}

func TestRecorderBeforeTruncatesHistory(t *testing.T) {
	r := NewRecorder()
	r.OnWrite(1*time.Second, 7, "t", []byte("k"), nil, nil)
	r.OnCommit(2*time.Second, 7)
	r.OnWrite(3*time.Second, 8, "t", []byte("k"), nil, nil)
	r.OnAbort(4*time.Second, 8)

	pre := r.Before(3 * time.Second)
	if got := len(pre.Events()); got != 2 {
		t.Fatalf("Before kept %d events, want 2", got)
	}
	commits, aborts := pre.Counts()
	if commits != 1 || aborts != 0 {
		t.Errorf("Before counts = %d commits %d aborts, want 1/0", commits, aborts)
	}
	// The source recorder is untouched.
	commits, aborts = r.Counts()
	if commits != 1 || aborts != 1 {
		t.Errorf("source counts changed: %d commits %d aborts", commits, aborts)
	}
}

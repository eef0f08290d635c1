package storage

import (
	"errors"
	"testing"
	"time"
)

func TestFenceAcksCurrentEpochAndRejectsStale(t *testing.T) {
	f := NewFence()
	f.SetRecording(true)
	if f.Epoch() != 1 {
		t.Fatalf("fresh fence epoch = %d, want 1", f.Epoch())
	}
	if err := f.CheckCommit(time.Second, "rw", 1); err != nil {
		t.Fatalf("commit at current epoch rejected: %v", err)
	}
	if got := f.Advance(2 * time.Second); got != 2 {
		t.Fatalf("Advance = %d, want 2", got)
	}
	err := f.CheckCommit(3*time.Second, "rw", 1)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale commit error = %v, want ErrFenced", err)
	}
	if err := f.CheckCommit(4*time.Second, "ro0", 2); err != nil {
		t.Fatalf("commit at new epoch rejected: %v", err)
	}
	if got := f.Rejects(); got != 1 {
		t.Fatalf("Rejects = %d, want 1", got)
	}
	kinds := []FenceEventKind{FenceAck, FenceAdvance, FenceReject, FenceAck}
	evs := f.Events()
	if len(evs) != len(kinds) {
		t.Fatalf("event count = %d, want %d", len(evs), len(kinds))
	}
	for i, want := range kinds {
		if evs[i].Kind != want {
			t.Errorf("event %d kind = %s, want %s", i, evs[i].Kind, want)
		}
	}
}

func TestFenceRecordingOffSkipsAcksKeepsRejects(t *testing.T) {
	f := NewFence()
	if err := f.CheckCommit(time.Second, "rw", 1); err != nil {
		t.Fatalf("ack failed: %v", err)
	}
	f.Advance(2 * time.Second)
	_ = f.CheckCommit(3*time.Second, "rw", 1)
	var acks, rejects int
	for _, ev := range f.Events() {
		switch ev.Kind {
		case FenceAck:
			acks++
		case FenceReject:
			rejects++
		}
	}
	if acks != 0 || rejects != 1 {
		t.Fatalf("acks=%d rejects=%d, want 0 acks (recording off) and 1 reject", acks, rejects)
	}
}

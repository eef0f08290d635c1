package check

import (
	"cloudybench/internal/storage"
)

// NoSplitBrain verifies the write lease held: shared storage never
// acknowledged a commit under a stale epoch, and no two nodes ever
// acknowledged commits under the same epoch. Either violation means two
// primaries were writing concurrently — the split-brain the lease exists to
// prevent. The fence must have had ack recording on (Fence.SetRecording)
// during the window under judgement.
func NoSplitBrain(events []storage.FenceEvent) Verdict {
	v := Verdict{Name: "no-split-brain", Passed: true}
	owner := make(map[uint64]string)
	for _, ev := range events {
		if ev.Kind != storage.FenceAck {
			continue
		}
		v.Checked++
		if ev.Epoch != ev.FenceEpoch {
			v.fail("ack at %v: node %s committed under stale epoch %d while the fence was at %d (split-brain write)",
				ev.At, ev.Node, ev.Epoch, ev.FenceEpoch)
			continue
		}
		if prev, ok := owner[ev.Epoch]; ok && prev != ev.Node {
			v.fail("epoch %d acknowledged commits from both %s and %s (two primaries under one lease)",
				ev.Epoch, prev, ev.Node)
			continue
		}
		owner[ev.Epoch] = ev.Node
	}
	return v
}

// MonotonicEpoch verifies the lease epoch only ever moved forward: each
// advance increments the epoch by exactly one, and no event in the log
// observes the fence at an earlier epoch than a previous event did. A
// regression or a skipped epoch means the lease state itself was corrupted
// (and every fencing decision made from it is suspect).
func MonotonicEpoch(events []storage.FenceEvent) Verdict {
	v := Verdict{Name: "monotonic-epoch", Passed: true}
	var last uint64
	for _, ev := range events {
		v.Checked++
		if ev.FenceEpoch < last {
			v.fail("event at %v (%s): fence epoch went backwards, %d after %d",
				ev.At, ev.Kind, ev.FenceEpoch, last)
			continue
		}
		if ev.Kind == storage.FenceAdvance && last != 0 && ev.FenceEpoch != last+1 {
			v.fail("advance at %v: epoch jumped %d -> %d, want +1 steps",
				ev.At, last, ev.FenceEpoch)
		}
		last = ev.FenceEpoch
	}
	return v
}

// FencedWrites verifies every rejected commit deserved it: each reject names
// a node epoch strictly older than the fence epoch at that instant. A reject
// of a current-epoch commit would mean the fence refused the legitimate
// primary — fencing turned from a safety mechanism into an availability bug.
func FencedWrites(events []storage.FenceEvent) Verdict {
	v := Verdict{Name: "fenced-writes", Passed: true}
	for _, ev := range events {
		if ev.Kind != storage.FenceReject {
			continue
		}
		v.Checked++
		if ev.Epoch >= ev.FenceEpoch {
			v.fail("reject at %v: node %s held epoch %d, fence at %d — a legitimate write was fenced",
				ev.At, ev.Node, ev.Epoch, ev.FenceEpoch)
		}
	}
	return v
}

// FenceVerdicts bundles the three lease invariants over one fence's event
// log, in reporting order.
func FenceVerdicts(f *storage.Fence) []Verdict {
	events := f.Events()
	return []Verdict{
		NoSplitBrain(events),
		MonotonicEpoch(events),
		FencedWrites(events),
	}
}

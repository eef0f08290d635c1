package evaluator

import (
	"fmt"
	"testing"
	"time"

	"cloudybench/internal/cdb"
)

// quickCrash runs a short gauntlet.
func quickCrash(kind cdb.Kind) CrashResult {
	return RunCrash(CrashConfig{Kind: kind, Span: 10 * time.Second, Concurrency: 6, Seed: 7})
}

// crashFingerprint flattens a result into a comparable string: every metric,
// verdict, recovery outcome, timeline mark, and applied-fault timestamp.
func crashFingerprint(r CrashResult) string {
	s := fmt.Sprintf("%s c=%d e=%d t=%d rr=%d f=%d ep=%d tps=%.6f|",
		r.Kind, r.Commits, r.Errors, r.Terminals, r.Reroutes, r.Fenced, r.Epoch, r.BaselineTPS)
	for _, c := range r.Crashes {
		s += fmt.Sprintf("%v:%s:rec=%d redo=%d undo=%d losers=%d torn=%v err=%q;",
			c.At, c.Target, c.Stats.Records, c.Stats.RedoSince, c.Stats.UndoRecords,
			c.Stats.Losers, c.Stats.TornDetected, c.Err)
	}
	for _, v := range r.Verdicts {
		s += fmt.Sprintf("%s=%v/%d;", v.Name, v.Passed, v.Checked)
	}
	for _, ev := range r.Timeline {
		s += fmt.Sprintf("%v:%s;", ev.At, ev.Phase)
	}
	for _, a := range r.Applied {
		s += fmt.Sprintf("%v:%s:%s;", a.At, a.Kind, a.Target)
	}
	return s
}

// TestCrashGauntletAllArchitecturesSurvive kills every SUT's nodes at the
// scheduled instants and demands the full verdict sheet stay green: no
// acknowledged commit lost, no unacknowledged write resurrected, indexes
// coherent, replicas converged.
func TestCrashGauntletAllArchitecturesSurvive(t *testing.T) {
	for _, kind := range cdb.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := quickCrash(kind)
			if !r.Passed() {
				for _, v := range r.Verdicts {
					if !v.Passed {
						t.Errorf("%s: %s", v.Name, v)
					}
				}
			}
			if r.Commits == 0 {
				t.Error("no commits survived the gauntlet")
			}
			if len(r.Crashes) == 0 {
				t.Fatal("no crash recovery outcomes recorded")
			}
			for _, c := range r.Crashes {
				if c.Err != "" {
					t.Errorf("crash %s@%v: recovery failed: %s", c.Target, c.At, c.Err)
				}
			}
		})
	}
}

// TestCrashRecoveryIsRealWork: a restart-in-place primary's recovery must
// scan the durable log it actually accumulated — the ARIES stats in the
// outcome prove the redo/undo passes ran over real records, and a torn tail
// must have been detected and cut for the TornFlip kills.
func TestCrashRecoveryIsRealWork(t *testing.T) {
	r := quickCrash(cdb.RDS)
	var redo, torn bool
	for _, c := range r.Crashes {
		if c.Target == "rw" && c.Stats.RedoSince > 0 {
			redo = true
		}
		if c.Stats.TornDetected {
			torn = true
		}
	}
	if !redo {
		t.Error("no RW recovery replayed any log records — recovery is not doing real work")
	}
	if !torn {
		t.Error("no torn tail was ever detected despite TornFlip kills")
	}
}

// TestCrashRecoveryTimeScalesWithLog: recovery time is emergent, not
// scripted — the same architecture crashing with more accumulated log (more
// clients, same schedule) must spend longer between the kill and the
// service-restored mark.
func TestCrashRecoveryTimeScalesWithLog(t *testing.T) {
	firstRecovery := func(r CrashResult) (time.Duration, int) {
		injected := firstMarkAfter(r.Timeline, -1, "RW crash injected")
		restored := firstMarkAfter(r.Timeline, injected, "RW service restored")
		if injected <= 0 || restored <= 0 {
			t.Fatalf("timeline missing crash/restore marks: %v", r.Timeline)
		}
		for _, c := range r.Crashes {
			if c.Target == "rw" && c.Stats.Records > 0 {
				return restored - injected, c.Stats.RedoSince
			}
		}
		t.Fatalf("no RW crash ran a real recovery pass: %+v", r.Crashes)
		return 0, 0
	}
	light := RunCrash(CrashConfig{Kind: cdb.RDS, Span: 10 * time.Second, Concurrency: 2, Seed: 7})
	heavy := RunCrash(CrashConfig{Kind: cdb.RDS, Span: 10 * time.Second, Concurrency: 12, Seed: 7})
	lt, lr := firstRecovery(light)
	ht, hr := firstRecovery(heavy)
	if hr <= lr {
		t.Fatalf("heavier traffic accumulated no more log: %d vs %d records", hr, lr)
	}
	if ht <= lt {
		t.Errorf("recovery time did not grow with the log: %v (%d records) vs %v (%d records)",
			lt, lr, ht, hr)
	}
}

// TestCrashRunIsDeterministic demands the whole report — metrics, recovery
// stats, verdicts, timeline, fault log — be identical across two same-seed
// runs.
func TestCrashRunIsDeterministic(t *testing.T) {
	a := crashFingerprint(quickCrash(cdb.CDB1))
	b := crashFingerprint(quickCrash(cdb.CDB1))
	if a != b {
		t.Fatalf("crash run diverged:\n%s\nvs\n%s", a, b)
	}
}

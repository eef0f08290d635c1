package check

import (
	"cloudybench/internal/engine"
)

// Crash-durability invariants. The recorder survives node crashes (recovery
// carries the observer onto the rebuilt engine), so its history spans every
// crash in a run: commit events mark exactly the transactions the engine
// made durable (commit append + fsync are atomic), write events carry the
// images of both acknowledged and doomed transactions. That history plus
// the final post-recovery state is enough to judge the two contracts a
// crash must not break:
//
//   - Durability: every key's final value is the one the last acknowledged
//     commit gave it (or its untouched baseline);
//   - NoResurrection: no key's final value is an image only an unacked
//     transaction ever wrote — the signature of recovery skipping undo or
//     trusting a torn log tail.
//
// Both read the expectations the recorder's index folded in one pass (the
// first write's before-image, overwritten by every committed after-image;
// the non-committed writers linked per key) and the final values through
// DB.ReadInto into the index's row scratch.

// Durability verifies that after every crash and recovery in the run, each
// touched key's final value is exactly what the acknowledged-commit history
// dictates: the after-image of the last committed write, or the key's
// baseline if no write to it ever committed. A divergence means an acked
// commit was lost, a doomed write survived, or recovery mangled a value —
// run NoResurrection alongside to classify which.
func Durability(name string, h *Recorder, db *engine.DB) Verdict {
	v := Verdict{Name: "durability/" + name, Passed: true}
	ix := h.index()
	for _, k := range ix.wkeys {
		v.Checked++
		ki := &ix.keys[k]
		if !sameImage(ix.final(h, db, k), h.row(ki.expected)) {
			v.fail("table %s key %x: final value diverges from the last acknowledged commit",
				h.tables[ki.table], h.key(ki.key))
		}
	}
	return v
}

// NoResurrection verifies that no key ends the run holding a value that
// only a non-committed transaction ever wrote: an in-flight loser the crash
// took, or a rolled-back abort. Such a zombie value means recovery failed
// to undo a loser (or applied a torn tail) — the client was told "not
// committed" yet the write is visible.
func NoResurrection(name string, h *Recorder, db *engine.DB) Verdict {
	v := Verdict{Name: "no-resurrection/" + name, Passed: true}
	ix := h.index()
	for _, k := range ix.wkeys {
		ki := &ix.keys[k]
		if ki.zFirst < 0 {
			continue
		}
		v.Checked++
		got := ix.final(h, db, k)
		if sameImage(got, h.row(ki.expected)) {
			continue // committed value wins, even if some zombie wrote the same bytes
		}
		for z := ki.zFirst; z >= 0; z = ix.zombie[z].next {
			if sameImage(got, h.row(ix.zombie[z].img)) {
				v.fail("table %s key %x: holds a value only non-committed txn %d wrote (resurrected write)",
					h.tables[ki.table], h.key(ki.key), ix.zombie[z].txn)
				break
			}
		}
	}
	return v
}

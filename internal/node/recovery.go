package node

import (
	"errors"
	"sort"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Crash-recovery modelling (DESIGN.md §17). A crash is instantaneous: the
// node drops to Down, its WAL loses the unsynced tail (possibly leaving a
// torn record), and every volatile structure — buffer-pool residency and
// dirty pages, the lock table, in-flight transactions — is gone. Recover
// then rebuilds the engine from the durable log via the ARIES pass and
// charges *virtual* time priced from what that pass actually did, so
// recovery duration is emergent: proportional to log-since-checkpoint for
// full redo/undo architectures, and to analysis+undo only for
// log-is-the-database architectures whose storage tier already holds the
// replayed pages.

// RecoveryConfig prices one architecture's crash-recovery path.
type RecoveryConfig struct {
	// Base is the fixed restart overhead: process boot, catalog load,
	// log-tail discovery.
	Base time.Duration
	// AnalysisPerRecord is the cost of scanning one log record in the
	// analysis pass. Analysis starts at the last fuzzy checkpoint, so this
	// is paid per record *since the checkpoint* (every architecture pays
	// it) — checkpointing bounds recovery time no matter how old the log.
	AnalysisPerRecord time.Duration
	// RedoPerRecord is the cost of re-applying one record inside the redo
	// window (records since the last checkpoint). Log-is-the-database
	// architectures skip it entirely.
	RedoPerRecord time.Duration
	// UndoPerRecord is the cost of rolling back one loser record.
	UndoPerRecord time.Duration
	// RedoPageIO, when set, additionally faults every distinct page the
	// redo window touched through the storage backend (ARIES engines warm
	// the buffer pool from disk during redo).
	RedoPageIO bool
	// LogIsDatabase marks redo-pushdown architectures (the log *is* the
	// database): the storage tier replays continuously, so recovery skips
	// the redo window and pays only analysis + undo.
	LogIsDatabase bool
}

// Crash kills the node instantly. The WAL keeps only what fsync made
// durable (torn selects how the in-flight record is mangled); the buffer
// pool, IO latches, and all in-flight transactions are discarded. Returns
// the number of log records lost. The node stays Down until Recover.
func (n *Node) Crash(torn storage.TornMode) int {
	n.crashEpoch++
	n.SetState(Down)
	tail, dropped := n.DB.Log().Crash(torn)
	n.crashSnap = n.DB.Log().Snapshot()
	n.crashTail = tail
	n.crashed = true
	// Volatile state dies with the process: fresh (cold) buffer pool, and
	// every latch waiter woken so its transaction can fail out through the
	// crash-epoch guard. Wake in sorted page order — map order would leak
	// scheduler nondeterminism.
	n.Buf = storage.NewBufferPoolBytes(n.memBytes)
	if len(n.ioLatch) > 0 {
		pages := make([]storage.PageID, 0, len(n.ioLatch))
		for pg := range n.ioLatch {
			pages = append(pages, pg)
		}
		sort.Slice(pages, func(i, j int) bool {
			if pages[i].Table != pages[j].Table {
				return pages[i].Table < pages[j].Table
			}
			return pages[i].Num < pages[j].Num
		})
		for _, pg := range pages {
			latch := n.ioLatch[pg]
			delete(n.ioLatch, pg)
			latch.Broadcast()
		}
	}
	return dropped
}

// CrashArtifacts exposes the durable log snapshot and torn tail a crash
// left behind (for fail-over: a promoted standby seeds from them).
func (n *Node) CrashArtifacts() (storage.LogSnapshot, []byte) {
	return n.crashSnap, n.crashTail
}

// SeedRecovery replaces the crash artifacts with a log fetched from another
// durable source — replica resync: a crashed replica's own apply state was
// volatile, so it rebuilds from the primary's durable log instead of its
// (empty) local one. No-op unless the node is down from a crash.
func (n *Node) SeedRecovery(snap storage.LogSnapshot, tail []byte) {
	if !n.crashed {
		return
	}
	n.crashSnap = snap
	n.crashTail = tail
}

// Recover rebuilds the node from its durable log. The engine-level ARIES
// pass (analysis, redo, undo, torn-tail truncation) produces both the new
// state and the RecoveryStats this method prices into virtual time per the
// node's RecoveryConfig; the node is Recovering — rejecting requests — for
// exactly that long, so recovery duration in experiment timelines is
// emergent from log volume, not scripted.
func (n *Node) Recover(p *sim.Proc) (engine.RecoveryStats, error) {
	if !n.crashed {
		return engine.RecoveryStats{}, errors.New("node: Recover on a node that has not crashed")
	}
	n.SetState(Recovering)
	prev := n.DB
	fresh := engine.NewDB(n.S)
	if n.RebuildSchema != nil {
		n.RebuildSchema(fresh)
	}
	st, err := fresh.Recover(n.crashSnap, n.crashTail)
	if err != nil {
		n.SetState(Down)
		return st, err
	}
	// Carry the cross-instance wiring the crash must not sever: the history
	// observer, the lock-wait trace hook, and the txn-id floor (the lost
	// tail may have used ids beyond anything durable).
	fresh.SetObserver(prev.Observer())
	if tr := n.Trace; tr != nil {
		fresh.Locks().OnWait = func(p *sim.Proc, txn uint64, key string, start, end time.Duration) {
			tr.Record(p, obs.KindLockWait, start, end)
		}
	}
	fresh.BumpTxnFloor(prev.TxnCounter())
	n.DB = fresh
	n.crashed = false
	n.crashSnap = storage.LogSnapshot{}
	n.crashTail = nil

	rc := n.recovery
	d := rc.Base + time.Duration(st.RedoSince)*rc.AnalysisPerRecord +
		time.Duration(st.UndoRecords)*rc.UndoPerRecord
	if !rc.LogIsDatabase {
		d += time.Duration(st.RedoSince) * rc.RedoPerRecord
	}
	if d > 0 {
		p.Sleep(d)
	}
	if rc.RedoPageIO && !rc.LogIsDatabase {
		for _, pg := range st.RedoPages {
			n.Backend.FetchPage(p, pg)
			n.Buf.Admit(pg)
		}
	}
	n.SetState(Running)
	return st, nil
}

// Package chainhelper is the unvetted helper tower for the cross-package
// chain fixture: it is NOT configured deterministic, so nothing here is
// flagged directly — the violation is the deterministic caller in the
// chain fixture delegating to it. Stamp grounds the wall clock three
// helpers deep to exercise chain propagation across the package boundary;
// Join grounds raw concurrency with no go statement, send or receive.
package chainhelper

import (
	"sync"
	"time"
)

// Stamp is the tower's entry point: Stamp → mid → leaf → time.Now.
func Stamp() int64 {
	return mid()
}

func mid() int64 {
	return leaf()
}

func leaf() int64 {
	return time.Now().UnixNano()
}

// Pure is hazard-free at every depth; calling it from deterministic code
// must produce nothing.
func Pure() int {
	return pureMid()
}

func pureMid() int {
	return 42
}

// Join joins through a sync.WaitGroup and closes a channel: raw
// concurrency that only rawgo's wider set of constructs grounds.
func Join() {
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Wait()
	close(done)
}

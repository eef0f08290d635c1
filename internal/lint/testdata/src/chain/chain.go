// Package chain exercises interprocedural hazard propagation: the
// cross-package boundary rule (a deterministic package delegating into an
// unvetted helper tower) and summary chains through in-package recursion
// cycles. The fixture is configured with this package deterministic and
// chainhelper not.
package chain

import "chainhelper"

// measure delegates timing to a tower whose third level reads the wall
// clock; the diagnostic lands here, at the boundary crossing, with the
// full witness chain.
func measure() int64 {
	return chainhelper.Stamp() // want `call to Stamp reaches the wall clock \(Stamp → mid → leaf → time\.Now\); deterministic packages must not delegate to it`
}

// harmless delegates to a hazard-free tower: no diagnostic.
func harmless() int {
	return chainhelper.Pure()
}

// join delegates to a helper that joins through a sync.WaitGroup and
// closes a channel: raw concurrency a deterministic package must not
// reach through a helper any more than write itself.
func join() {
	chainhelper.Join() // want `call to Join reaches raw concurrency \(Join → sync\.WaitGroup\); deterministic packages must not delegate to it`
}

// suppressed carries a reviewed exception; the allow is live (consumed by
// the boundary diagnostic), so allowstale stays quiet too.
func suppressed() int64 {
	return chainhelper.Stamp() //detlint:allow wallclock(fixture: reviewed boundary crossing)
}

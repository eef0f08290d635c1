package core

import (
	"testing"
	"time"

	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

func TestBackoffForCapsExponent(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if got := p.backoffFor(0); got != 100*time.Millisecond {
		t.Fatalf("attempt 0 backoff = %v", got)
	}
	if got := p.backoffFor(1); got != 200*time.Millisecond {
		t.Fatalf("attempt 1 backoff = %v", got)
	}
	if got := p.backoffFor(10); got != 2*time.Second {
		t.Fatalf("attempt 10 backoff = %v, want cap", got)
	}
	// Deep exponents must not overflow past the cap.
	if got := p.backoffFor(200); got != 2*time.Second {
		t.Fatalf("attempt 200 backoff = %v, want cap", got)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := &Breaker{}

	if ok, _ := b.Allow(0); !ok || b.State() != "closed" {
		t.Fatal("fresh breaker must admit")
	}
	for i := 1; i < breakerThreshold; i++ {
		if b.OnFailure(time.Duration(i) * 10 * time.Millisecond) {
			t.Fatalf("failure %d must not open a threshold-%d breaker", i, breakerThreshold)
		}
	}
	opened := breakerThreshold * 10 * time.Millisecond
	if !b.OnFailure(opened) {
		t.Fatalf("failure %d must open the breaker", breakerThreshold)
	}
	if ok, _ := b.Allow(opened + 80*time.Millisecond); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if ok, _ := b.Allow(opened + breakerCooldown - 1); ok {
		t.Fatal("open breaker admitted a request before the cooldown elapsed")
	}
	probe := opened + breakerCooldown + 80*time.Millisecond
	ok, openEnded := b.Allow(probe)
	if !ok || !openEnded || b.State() != "half-open" {
		t.Fatalf("cooldown elapsed: Allow = (%v, %v), state %s", ok, openEnded, b.State())
	}
	// Only one probe at a time while half-open.
	if ok, _ := b.Allow(probe); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Failed probe snaps back open.
	reopened := probe + 100*time.Millisecond
	if !b.OnFailure(reopened) {
		t.Fatal("failed probe must re-open the breaker")
	}
	if ok, _ := b.Allow(reopened + 100*time.Millisecond); ok {
		t.Fatal("re-opened breaker admitted a request")
	}
	// Successful probe after the next cooldown closes it.
	if ok, _ := b.Allow(reopened + breakerCooldown + 100*time.Millisecond); !ok {
		t.Fatal("second probe refused")
	}
	b.OnSuccess()
	if b.State() != "closed" {
		t.Fatalf("state after successful probe = %s", b.State())
	}
	if ok, _ := b.Allow(reopened + breakerCooldown + 200*time.Millisecond); !ok {
		t.Fatal("closed breaker must admit")
	}
}

// TestRetryBudgetBoundsNeverHealedPartition is the regression test for the
// bounded retry loop: under a partition that never heals, every transaction
// must terminate with a terminal error after its attempt budget instead of
// spinning for the rest of the run.
func TestRetryBudgetBoundsNeverHealedPartition(t *testing.T) {
	s := sim.New(epoch)
	n := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: MixReadWrite,
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Reachable: func(*node.Node) bool { return false }, // never heals
		Collector: col,
		Retry: RetryPolicy{
			BackoffBase: 5 * time.Millisecond, BackoffCap: 20 * time.Millisecond,
			MaxAttempts: 3,
		},
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(2 * time.Second)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if col.Commits() != 0 {
		t.Fatalf("commits = %d through an unreachable node", col.Commits())
	}
	if col.Terminals() == 0 {
		t.Fatal("no terminal errors: transactions spun instead of giving up")
	}
	// Each terminal transaction burned exactly MaxAttempts failed attempts
	// (the final Stop can cut one transaction's retry loop short per worker).
	if errs, terms := col.Errors(), col.Terminals(); errs > terms*3+4*3 {
		t.Fatalf("errors = %d for %d terminals: retry loop not bounded by budget", errs, terms)
	}
}

// TestReaderReroutesAroundBrokenNode: when the primary read pick is
// unreachable, read-only transactions must fall back to another candidate
// instead of failing, and the reroute must be counted.
func TestReaderReroutesAroundBrokenNode(t *testing.T) {
	s := sim.New(epoch)
	broken := node.New(s, node.Config{
		Name: "ro0", VCores: 4, MemoryBytes: 256 << 20,
		OpCPU: 200 * time.Microsecond, TxnCPU: 100 * time.Microsecond,
	}, node.NullBackend{})
	healthy := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: MixReadOnly,
		Write:          func() *node.Node { return healthy },
		Read:           func() *node.Node { return broken }, // always picks the broken node
		ReadCandidates: func() []*node.Node { return []*node.Node{broken, healthy} },
		Reachable:      func(n *node.Node) bool { return n != broken },
		Collector:      col,
		Retry:          RetryPolicy{BackoffBase: 5 * time.Millisecond},
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(time.Second)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if col.Commits() == 0 {
		t.Fatal("no commits: reroute did not route reads around the broken node")
	}
	if col.Terminals() != 0 {
		t.Fatalf("terminals = %d, want 0 (reroute should save every read)", col.Terminals())
	}
	if r.Reroutes() == 0 {
		t.Fatal("reroutes not counted")
	}
}

// TestBreakerOpensUnderSustainedFailure: a down node must open its breaker
// after the threshold, and the breaker-open count must be visible.
func TestBreakerOpensUnderSustainedFailure(t *testing.T) {
	s := sim.New(epoch)
	n := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: MixReadWrite,
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Collector: col,
		Retry: RetryPolicy{
			BackoffBase: 5 * time.Millisecond, BackoffCap: 40 * time.Millisecond,
			MaxAttempts: 4,
		},
	})
	// The outage spans two cooldowns, so the breaker opens and a probe
	// fails; after recovery the next probe comes within one cooldown.
	recovered := 500*time.Millisecond + 2*breakerCooldown
	stop := recovered + 2*breakerCooldown
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(500 * time.Millisecond)
		n.SetState(node.Down)
		p.Sleep(2 * breakerCooldown)
		n.SetState(node.Running)
		p.Sleep(2 * breakerCooldown)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.BreakerOpens() == 0 {
		t.Fatal("breaker never opened during a sustained outage")
	}
	// Traffic resumed after the node recovered: a half-open probe succeeded
	// and closed the breaker.
	if col.TPS(recovered+breakerCooldown+breakerCooldown/2, stop) == 0 {
		t.Fatal("no TPS after recovery: breaker stuck open")
	}
}

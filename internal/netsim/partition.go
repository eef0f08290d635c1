package netsim

import "time"

// Net is a deployment-wide registry of named endpoints and the directed
// links between them, so chaos schedules can cut the fabric by *who talks
// to whom* instead of by individual link handles. Partitions are tracked as
// a directed cut set over endpoint pairs; links registered while a cut is
// active (e.g. the replication stream a fail-over creates mid-partition)
// are severed on arrival, which is what a real partition does to a fresh
// TCP connection between the same hosts.
//
// Endpoint names are short deployment-local names: node names like "rw" and
// "ro0", plus the synthetic "client" (workload drivers) and "ctrl" (the
// control plane the failure detector heartbeats over).
type Net struct {
	endpoints []string
	edges     []edge
	// cut is the directed cut set keyed "from\x00to". Lookup-only: it is
	// never ranged into output (detlint maporder); all rendering walks the
	// edges slice, whose order is registration order.
	cut map[string]bool
}

type edge struct {
	from, to string
	link     *Link
}

// NewNet returns an empty network registry.
func NewNet() *Net {
	return &Net{cut: make(map[string]bool)}
}

func cutKey(from, to string) string { return from + "\x00" + to }

// AddEndpoint declares a named endpoint (idempotent). Register adds its
// endpoints implicitly; this exists for link-less endpoints like "client"
// and "ctrl" whose reachability is purely cut-set arithmetic.
func (n *Net) AddEndpoint(name string) {
	if !n.HasEndpoint(name) {
		n.endpoints = append(n.endpoints, name)
	}
}

// HasEndpoint reports whether name is a declared endpoint.
func (n *Net) HasEndpoint(name string) bool {
	for _, e := range n.endpoints {
		if e == name {
			return true
		}
	}
	return false
}

// Register records a directed link between two endpoints. If the pair is
// inside an active cut, the new link is severed immediately.
func (n *Net) Register(from, to string, l *Link) {
	n.AddEndpoint(from)
	n.AddEndpoint(to)
	n.edges = append(n.edges, edge{from: from, to: to, link: l})
	if n.cut[cutKey(from, to)] {
		l.Cut()
	}
}

// Partition cuts traffic from every endpoint in a to every endpoint in b —
// and the reverse direction too when symmetric is true. An asymmetric
// partition (symmetric=false) models a gray failure where a can no longer
// reach b but b still reaches a.
func (n *Net) Partition(a, b []string, symmetric bool) {
	for _, from := range a {
		for _, to := range b {
			n.cut[cutKey(from, to)] = true
			if symmetric {
				n.cut[cutKey(to, from)] = true
			}
		}
	}
	n.applyCuts()
}

// Heal removes the cuts between groups a and b in both directions and wakes
// senders blocked on the healed links.
func (n *Net) Heal(a, b []string) {
	for _, from := range a {
		for _, to := range b {
			delete(n.cut, cutKey(from, to))
			delete(n.cut, cutKey(to, from))
		}
	}
	n.applyCuts()
}

// HealAll clears every active cut. Deployments call this at shutdown so no
// sender is left blocked on a severed link when the simulation drains.
func (n *Net) HealAll() {
	n.cut = make(map[string]bool)
	n.applyCuts()
}

// applyCuts reconciles every registered link with the cut set, in
// registration order (deterministic heal wake-up order).
func (n *Net) applyCuts() {
	for _, e := range n.edges {
		if n.cut[cutKey(e.from, e.to)] {
			e.link.Cut()
		} else {
			e.link.Heal()
		}
	}
}

// Reachable reports whether traffic from one endpoint currently reaches
// another. Endpoints always reach themselves.
func (n *Net) Reachable(from, to string) bool {
	if from == to {
		return true
	}
	return !n.cut[cutKey(from, to)]
}

// Spike degrades every registered link between groups a and b (both
// directions) with extra latency and a bandwidth factor — a packet-delay
// spike rather than a full cut.
func (n *Net) Spike(a, b []string, extraLatency time.Duration, bwFactor float64) {
	n.forEachBetween(a, b, func(l *Link) { l.Degrade(extraLatency, bwFactor) })
}

// Unspike restores every registered link between groups a and b.
func (n *Net) Unspike(a, b []string) {
	n.forEachBetween(a, b, func(l *Link) { l.Restore() })
}

func (n *Net) forEachBetween(a, b []string, fn func(*Link)) {
	match := func(groups []string, name string) bool {
		for _, g := range groups {
			if g == name {
				return true
			}
		}
		return false
	}
	for _, e := range n.edges {
		if (match(a, e.from) && match(b, e.to)) || (match(b, e.from) && match(a, e.to)) {
			fn(e.link)
		}
	}
}

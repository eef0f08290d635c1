// Package patterns generates the elasticity and multi-tenancy workload
// shapes of paper §II-C and §II-D.
//
// Elasticity patterns are concurrency sequences over fixed-length time
// slots, expressed as proportions of τ — the concurrency at which the
// tested database saturates. The paper's four basic shapes:
//
//	(a) single peak : (0, 100%, 0)        — e.g. an ETL maintenance job
//	(b) large spike : (10%, 80%, 10%)     — ordering a hot-selling product
//	(c) single valley: (40%, 20%, 40%)    — declined sales on price change
//	(d) zero valley : (50%, 0, 50%)       — out of stock shortly
//
// Multi-tenancy patterns assign each tenant its own slot sequence:
// high/low contention run all tenants together above/below the resource
// threshold; staggered high/low run them one-at-a-time.
package patterns

import (
	"fmt"
	"math"
)

// Elastic is one elasticity pattern: per-slot proportions of τ.
type Elastic struct {
	Name        string
	Proportions []float64
}

// The paper's four basic elasticity patterns with their canonical
// proportions (§II-C: "we generate the basic patterns in the following
// typical proportions").
var (
	SinglePeak   = Elastic{Name: "single-peak", Proportions: []float64{0, 1.00, 0}}
	LargeSpike   = Elastic{Name: "large-spike", Proportions: []float64{0.10, 0.80, 0.10}}
	SingleValley = Elastic{Name: "single-valley", Proportions: []float64{0.40, 0.20, 0.40}}
	ZeroValley   = Elastic{Name: "zero-valley", Proportions: []float64{0.50, 0, 0.50}}
)

// ElasticPatterns returns the four basic patterns in paper order.
func ElasticPatterns() []Elastic {
	return []Elastic{SinglePeak, LargeSpike, SingleValley, ZeroValley}
}

// Concurrency materializes the pattern for a saturation concurrency τ,
// returning the worker count per slot. Values round half away from zero;
// for instance τ=110 yields (0,110,0), (11,88,11), (44,22,44), (55,0,55).
func (e Elastic) Concurrency(tau int) []int {
	out := make([]int, len(e.Proportions))
	for i, p := range e.Proportions {
		out[i] = int(math.Round(p * float64(tau)))
	}
	return out
}

// Custom builds a pattern from explicit proportions, validating range.
func Custom(name string, proportions []float64) (Elastic, error) {
	if len(proportions) == 0 {
		return Elastic{}, fmt.Errorf("patterns: %s has no slots", name)
	}
	for _, p := range proportions {
		if p < 0 || p > 1 {
			return Elastic{}, fmt.Errorf("patterns: %s proportion %v outside [0,1]", name, p)
		}
	}
	return Elastic{Name: name, Proportions: proportions}, nil
}

// Tenancy is one multi-tenancy pattern: per-tenant concurrency sequences
// plus the execution mode (parallel for contention patterns, sequential
// for staggered ones).
type Tenancy struct {
	Name string
	// PerTenant[t][s] is tenant t's concurrency in slot s.
	PerTenant [][]int
	// Sequential indicates tenants' traffic arrives one-at-a-time
	// (staggered patterns); the slot boundaries already encode it here,
	// retained for reporting.
	Sequential bool
	// OverThreshold marks patterns whose total demand exceeds the
	// resource threshold (contention).
	OverThreshold bool
}

// TenancyKind selects one of the four basic multi-tenancy patterns.
type TenancyKind string

// The four basic multi-tenancy patterns (paper Figure 4).
const (
	HighContention TenancyKind = "high-contention"
	LowContention  TenancyKind = "low-contention"
	StaggeredHigh  TenancyKind = "staggered-high"
	StaggeredLow   TenancyKind = "staggered-low"
)

// TenancyKinds lists all four in paper order.
var TenancyKinds = []TenancyKind{HighContention, LowContention, StaggeredHigh, StaggeredLow}

// PaperTenancy materializes the paper's exact 3-tenant experiments
// (§III-D): pattern (a) {(264,264,264),(99,99,99),(33,33,33)};
// (b) {(40,40,40),(30,30,30),(10,10,10)}; (c) {(363,0,0),(0,429,0),
// (0,0,396)}; (d) {(10,0,0),(0,20,0),(0,0,30)}.
func PaperTenancy(kind TenancyKind) Tenancy {
	switch kind {
	case HighContention:
		return Tenancy{
			Name:          string(kind),
			PerTenant:     [][]int{{264, 264, 264}, {99, 99, 99}, {33, 33, 33}},
			OverThreshold: true,
		}
	case LowContention:
		return Tenancy{
			Name:      string(kind),
			PerTenant: [][]int{{40, 40, 40}, {30, 30, 30}, {10, 10, 10}},
		}
	case StaggeredHigh:
		return Tenancy{
			Name:          string(kind),
			PerTenant:     [][]int{{363, 0, 0}, {0, 429, 0}, {0, 0, 396}},
			Sequential:    true,
			OverThreshold: true,
		}
	case StaggeredLow:
		return Tenancy{
			Name:       string(kind),
			PerTenant:  [][]int{{10, 0, 0}, {0, 20, 0}, {0, 0, 30}},
			Sequential: true,
		}
	default:
		panic("patterns: unknown tenancy kind " + string(kind))
	}
}

// Tenants returns the tenant count.
func (t Tenancy) Tenants() int { return len(t.PerTenant) }

// Slots returns the slot count.
func (t Tenancy) Slots() int {
	if len(t.PerTenant) == 0 {
		return 0
	}
	return len(t.PerTenant[0])
}

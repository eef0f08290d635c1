package patterns

import (
	"testing"
)

func TestElasticCanonicalConcurrency(t *testing.T) {
	// Paper §III-C with τ=110: (0,110,0), (11,88,11), (44,22,44), (55,0,55).
	cases := []struct {
		p    Elastic
		want []int
	}{
		{SinglePeak, []int{0, 110, 0}},
		{LargeSpike, []int{11, 88, 11}},
		{SingleValley, []int{44, 22, 44}},
		{ZeroValley, []int{55, 0, 55}},
	}
	for _, c := range cases {
		got := c.p.Concurrency(110)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: concurrency = %v, want %v", c.p.Name, got, c.want)
			}
		}
		if len(got) != 3 {
			t.Errorf("%s slots = %d", c.p.Name, len(got))
		}
	}
	if len(ElasticPatterns()) != 4 {
		t.Fatal("four basic patterns expected")
	}
}

func TestCustomValidation(t *testing.T) {
	if _, err := Custom("x", nil); err == nil {
		t.Fatal("empty proportions accepted")
	}
	if _, err := Custom("x", []float64{0.5, 1.5}); err == nil {
		t.Fatal("proportion > 1 accepted")
	}
	e, err := Custom("x", []float64{0.2, 0.8})
	if err != nil || e.Concurrency(100)[1] != 80 {
		t.Fatalf("%v %v", e, err)
	}
}

func TestPaperTenancyShapes(t *testing.T) {
	a := PaperTenancy(HighContention)
	if a.Tenants() != 3 || a.Slots() != 3 || !a.OverThreshold || a.Sequential {
		t.Fatalf("pattern a: %+v", a)
	}
	if got := slotTotals(a); got[0] != 264+99+33 {
		t.Fatalf("pattern a total = %v", got)
	}
	d := PaperTenancy(StaggeredLow)
	if !d.Sequential || d.OverThreshold {
		t.Fatalf("pattern d flags: %+v", d)
	}
	// Staggered: exactly one active tenant per slot.
	for s := 0; s < d.Slots(); s++ {
		active := 0
		for _, row := range d.PerTenant {
			if row[s] > 0 {
				active++
			}
		}
		if active != 1 {
			t.Fatalf("staggered slot %d has %d active tenants", s, active)
		}
	}
	if got := slotTotals(d); got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("pattern d totals = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	PaperTenancy("nope")
}

// slotTotals sums the clients of all tenants in each slot.
func slotTotals(t Tenancy) []int {
	out := make([]int, t.Slots())
	for _, row := range t.PerTenant {
		for s, c := range row {
			out[s] += c
		}
	}
	return out
}

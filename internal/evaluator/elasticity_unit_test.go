package evaluator

import (
	"testing"
	"time"

	"cloudybench/internal/meter"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestLastStepInWindows(t *testing.T) {
	s := meter.NewSeries(1)
	s.Set(sec(5), 2)
	s.Set(sec(8), 3)
	s.Set(sec(20), 1)
	if got := lastStepIn(s, sec(0), sec(10)); got != sec(8) {
		t.Fatalf("lastStepIn(0,10) = %v, want 8s", got)
	}
	// No steps in window: returns the window start.
	if got := lastStepIn(s, sec(10), sec(15)); got != sec(10) {
		t.Fatalf("lastStepIn(10,15) = %v, want 10s", got)
	}
	// Step exactly at the window end is included.
	if got := lastStepIn(s, sec(10), sec(20)); got != sec(20) {
		t.Fatalf("lastStepIn(10,20) = %v, want 20s", got)
	}
}

func TestOLTPConfigDefaults(t *testing.T) {
	c := OLTPConfig{}.withDefaults()
	if c.SF != 1 || c.Replicas != 1 || c.Warmup == 0 || c.Measure == 0 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
	if got := (OLTPConfig{Replicas: NoReplicas}).withDefaults().Replicas; got != 0 {
		t.Fatalf("NoReplicas -> %d", got)
	}
	if got := (OLTPConfig{Replicas: 2}).withDefaults().Replicas; got != 2 {
		t.Fatalf("explicit replicas -> %d", got)
	}
}

func TestElasticityConfigDefaults(t *testing.T) {
	c := ElasticityConfig{}.withDefaults()
	if c.Tau != 110 || c.SlotLength != time.Minute || c.CostSlots != 10 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestFailoverConfigDefaults(t *testing.T) {
	c := FailoverConfig{}.withDefaults()
	if c.Concurrency != 150 || c.Baseline != 10*time.Second || c.Timeout != 120*time.Second {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestTenancyConfigDefaults(t *testing.T) {
	c := TenancyConfig{}.withDefaults()
	if c.SlotLength != time.Minute || c.Seed != 42 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestGeoMean(t *testing.T) {
	if got := geoMean([]float64{4, 9}); got != 6 {
		t.Fatalf("geoMean(4,9) = %v", got)
	}
	if geoMean(nil) != 0 || geoMean([]float64{0, 5}) != 0 {
		t.Fatal("degenerate geoMean")
	}
}

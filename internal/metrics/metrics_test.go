package metrics

import (
	"math"
	"testing"
	"time"
)

func almost(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestPScoreMatchesTableV(t *testing.T) {
	// Table V, AWS RDS RO: TPS 22092 at $0.0437/min -> 505538.
	got := PScore(22092, 0.0437)
	if !almost(got, 505538, 1000) {
		t.Fatalf("P-Score = %v, want ~505538", got)
	}
	if PScore(100, 0) != 0 {
		t.Fatal("zero cost should yield 0")
	}
}

func TestE1Score(t *testing.T) {
	if got := E1Score(1000, 0.01); got != 100000 {
		t.Fatalf("E1 = %v", got)
	}
	if E1Score(1000, 0) != 0 {
		t.Fatal("zero cost")
	}
}

func TestFAndRScores(t *testing.T) {
	phases := []time.Duration{10 * time.Second, 20 * time.Second}
	if FScore(phases) != 15*time.Second {
		t.Fatal("F mean")
	}
	if RScore(nil) != 0 {
		t.Fatal("empty phases")
	}
}

func TestE2Score(t *testing.T) {
	// Paper: add RO nodes, TPS per node improvement / δ.
	// RDS E2=20: TPS went 17003 -> 36198 with one RO at δ~1000:
	// (36198-17003)/1000/1 = 19.2 ~ 20.
	got := E2Score([]float64{17003, 36198}, 1000)
	if !almost(got, 19.2, 0.1) {
		t.Fatalf("E2 = %v", got)
	}
	// Two replicas: average of increments.
	got = E2Score([]float64{100, 200, 260}, 10)
	if !almost(got, (10+6)/2.0, 1e-9) {
		t.Fatalf("E2 = %v", got)
	}
	if E2Score([]float64{100}, 10) != 0 || E2Score(nil, 10) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCScore(t *testing.T) {
	got := CScore(3*time.Millisecond, 2*time.Millisecond, time.Millisecond, 1)
	if got != 6*time.Millisecond {
		t.Fatalf("C = %v", got)
	}
	if CScore(6*time.Millisecond, 0, 0, 2) != 3*time.Millisecond {
		t.Fatal("replica division")
	}
	if CScore(time.Millisecond, 0, 0, 0) != time.Millisecond {
		t.Fatal("replica floor")
	}
}

func TestTScoreGeometricMean(t *testing.T) {
	// Table VII CDB2 pattern (a): tenants' geometric mean ~4200 at
	// $0.06/min -> 70008.
	got := TScore([]float64{4200, 4200, 4200}, 0.06)
	if !almost(got, 70000, 100) {
		t.Fatalf("T = %v", got)
	}
	// Geometric mean punishes imbalance at equal arithmetic mean:
	// geo(1, 9999) << geo(5000, 5000).
	unbalanced := TScore([]float64{1, 9999}, 0.06)
	balanced := TScore([]float64{5000, 5000}, 0.06)
	if unbalanced >= balanced {
		t.Fatalf("geo mean should punish imbalance: %v vs %v", unbalanced, balanced)
	}
	if TScore(nil, 1) != 0 || TScore([]float64{0, 5}, 1) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestOScoreReproducesTableIX(t *testing.T) {
	// CDB1 row: P=131906, T=52705, E1=16024, E2=3, R=9s, F=6s, C=178ms
	// -> paper O-Score 13.48.
	got := OScore(1, 131906, 52705, 16024, 3, 9*time.Second, 6*time.Second, 178*time.Millisecond)
	if !almost(got, 13.48, 0.1) {
		t.Fatalf("CDB1 O-Score = %v, want ~13.48", got)
	}
	// CDB4 row: P=153566, T=75305, E1=80565, E2=10, R=3.5s, F=2.5s,
	// C=1.5ms -> paper 17.7.
	got = OScore(1, 153566, 75305, 80565, 10, 3500*time.Millisecond, 2500*time.Millisecond, 1500*time.Microsecond)
	if !almost(got, 17.7, 0.2) {
		t.Fatalf("CDB4 O-Score = %v, want ~17.7", got)
	}
	// Degenerate components must not produce NaN/Inf.
	if OScore(1, 0, 1, 1, 1, time.Second, time.Second, time.Second) != 0 {
		t.Fatal("zero component should yield 0")
	}
}

func TestScoresAggregation(t *testing.T) {
	s := Scores{
		System: "cdb4",
		P:      153566, PStar: 19124,
		E1: 80565, E1Star: 52241,
		R: 3500 * time.Millisecond, F: 2500 * time.Millisecond,
		E2: 10, C: 1500 * time.Microsecond,
		T: 75305, TStar: 13806,
	}
	if !almost(s.O(), 17.7, 0.2) {
		t.Fatalf("O = %v", s.O())
	}
	// Paper O* for CDB4 = 15.87.
	if !almost(s.OStar(), 15.87, 0.2) {
		t.Fatalf("O* = %v", s.OStar())
	}
	// SF scaling multiplies the score.
	if got := OScore(2, s.P, s.T, s.E1, s.E2, s.R, s.F, s.C); !almost(got, 2*s.O(), 1e-9) {
		t.Fatalf("SF-scaled O = %v, want %v", got, 2*s.O())
	}
}

func TestFPartScore(t *testing.T) {
	if got := FPartScore([]time.Duration{6 * time.Second, 10 * time.Second}); got != 8*time.Second {
		t.Fatalf("FPart = %v, want 8s", got)
	}
	if FPartScore(nil) != 0 {
		t.Fatal("empty FPart should be 0")
	}
}

package pricing

import (
	"testing"
	"time"
)

// The §III-G billing quirks, table-driven over the vendor models the SUT
// profiles wire up: AWS RDS bills at least 10 minutes, CDB2's elastic pool
// bills at least one hour, CDB3 bills per second at a ~3x cheaper vCore
// rate. Each case sits on or immediately beside a billing-slot edge, where
// rounding bugs live.
func TestBillingQuirkSlotEdges(t *testing.T) {
	rds := Actual{PerVCoreHour: 0.40, MinBilling: 10 * time.Minute}
	pool := Actual{PerVCoreHour: 0.42, MinBilling: time.Hour}
	cheap := Actual{PerVCoreHour: 0.16, MinBilling: 0}

	cases := []struct {
		name   string
		vendor Actual
		d      time.Duration
		want   time.Duration
	}{
		// RDS: "charges for at least 10 minutes".
		{"rds/zero", rds, 0, 0},
		{"rds/one-second", rds, time.Second, 10 * time.Minute},
		{"rds/just-under-slot", rds, 10*time.Minute - time.Nanosecond, 10 * time.Minute},
		{"rds/exact-slot", rds, 10 * time.Minute, 10 * time.Minute},
		{"rds/just-over-slot", rds, 10*time.Minute + time.Nanosecond, 20 * time.Minute},
		{"rds/exact-two-slots", rds, 20 * time.Minute, 20 * time.Minute},
		{"rds/mid-second-slot", rds, 15 * time.Minute, 20 * time.Minute},
		{"rds/negative-clamps", rds, -time.Minute, 0},

		// CDB2: "the elastic pool is charged at least one hour".
		{"cdb2/one-minute", pool, time.Minute, time.Hour},
		{"cdb2/just-under-hour", pool, time.Hour - time.Second, time.Hour},
		{"cdb2/exact-hour", pool, time.Hour, time.Hour},
		{"cdb2/just-over-hour", pool, time.Hour + time.Second, 2 * time.Hour},
		{"cdb2/exact-two-hours", pool, 2 * time.Hour, 2 * time.Hour},

		// CDB3: per-second billing, no rounding at any edge.
		{"cdb3/one-second", cheap, time.Second, time.Second},
		{"cdb3/exact-hour", cheap, time.Hour, time.Hour},
		{"cdb3/odd-duration", cheap, 37*time.Minute + 13*time.Second, 37*time.Minute + 13*time.Second},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.vendor.BillableDuration(c.d); got != c.want {
				t.Fatalf("BillableDuration(%v) = %v, want %v", c.d, got, c.want)
			}
		})
	}

	one := Package{VCores: 1}
	costCases := []struct {
		name   string
		vendor Actual
		d      time.Duration
		want   float64
	}{
		{"rds/second-costs-ten-minutes", rds, time.Second, 0.40 / 6},
		{"rds/over-edge-doubles", rds, 10*time.Minute + time.Second, 2 * 0.40 / 6},
		{"cdb2/minute-costs-full-hour", pool, time.Minute, 0.42},
		{"cdb2/over-edge-doubles", pool, time.Hour + time.Second, 0.84},
		{"cdb3/half-hour-costs-half", cheap, 30 * time.Minute, 0.08},
		{"cdb3/second-costs-a-second", cheap, time.Second, 0.16 / 3600},
	}
	for _, c := range costCases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.vendor.Cost(one, c.d); !within(got, c.want, 1e-9) {
				t.Fatalf("Cost(1 vCore, %v) = %v, want %v", c.d, got, c.want)
			}
		})
	}

	// The cheap-vCore claim itself: "$0.16 per vCore compared with $0.42 per
	// vCore by CDB2" — at exactly one pool slot the ratio is the rate ratio,
	// and one second past the slot edge CDB2 doubles while CDB3 barely moves.
	atSlot := pool.Cost(one, time.Hour) / cheap.Cost(one, time.Hour)
	if !within(atSlot, 0.42/0.16, 1e-9) {
		t.Fatalf("pool/cheap ratio at exact slot = %v, want %v", atSlot, 0.42/0.16)
	}
	pastSlot := pool.Cost(one, time.Hour+time.Second) / cheap.Cost(one, time.Hour+time.Second)
	if pastSlot <= atSlot*1.9 {
		t.Fatalf("pool/cheap ratio past slot edge = %v, want ~2x the at-slot ratio %v", pastSlot, atSlot)
	}
}

// Package metrics implements the paper's "PERFECT" metric framework
// (§II-G): Productivity, two Elasticity scores, Recovery, Fail-over,
// Consistency (replication lag), Tenancy, and the unified O-Score.
//
// Conventions: TPS values are transactions/second; costs are dollars per
// minute of resource-unit cost (the unit Table V reports); F and R are
// seconds; C is reported in milliseconds but enters the O-Score in seconds
// (reproducing Table IX's published values requires C in seconds — e.g.
// CDB1's O = lg(131906·52705·16024·3 / (9·6·0.178)) = 13.5, matching the
// paper's 13.48).
package metrics

import (
	"math"
	"time"
)

// PScore is the cost-aware productivity of equation (1): average TPS per
// dollar-per-minute of total resource cost.
func PScore(avgTPS, costPerMinute float64) float64 {
	if costPerMinute <= 0 {
		return 0
	}
	return avgTPS / costPerMinute
}

// E1Score is the scale-up/down elasticity of equation (2): average TPS per
// dollar-per-minute of the elasticity-relevant resources (CPU, memory,
// IOPS).
func E1Score(avgTPS, cpuMemIOPSCostPerMinute float64) float64 {
	if cpuMemIOPSCostPerMinute <= 0 {
		return 0
	}
	return avgTPS / cpuMemIOPSCostPerMinute
}

// FScore is equation (3): the mean time from failure injection to service
// recovery across k recovery phases.
func FScore(phases []time.Duration) time.Duration {
	return meanDuration(phases)
}

// RScore is equation (4): the mean time from service recovery to TPS
// recovery across k recovery phases.
func RScore(phases []time.Duration) time.Duration {
	return meanDuration(phases)
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// E2Score is equation (5): average TPS improvement per added RO node,
// scaled by δ. tps[i] is the throughput with i read-only nodes, so tps
// must hold λ+1 entries (including the zero-replica baseline).
func E2Score(tps []float64, delta float64) float64 {
	if len(tps) < 2 || delta <= 0 {
		return 0
	}
	lambda := float64(len(tps) - 1)
	var sum float64
	for i := 1; i < len(tps); i++ {
		sum += (tps[i] - tps[i-1]) / delta
	}
	return sum / lambda
}

// CScore is equation (6): (T_insert + T_update + T_delete) / λ, the summed
// mean per-DML replication lags over the replica count. Smaller is faster.
func CScore(insert, update, del time.Duration, replicas int) time.Duration {
	if replicas <= 0 {
		replicas = 1
	}
	return (insert + update + del) / time.Duration(replicas)
}

// TScore is equation (7): geometric mean of per-tenant TPS divided by the
// summed per-tenant resource cost (dollars per minute).
func TScore(tenantTPS []float64, totalCostPerMinute float64) float64 {
	if len(tenantTPS) == 0 || totalCostPerMinute <= 0 {
		return 0
	}
	logSum := 0.0
	for _, tps := range tenantTPS {
		if tps <= 0 {
			return 0
		}
		logSum += math.Log(tps)
	}
	geo := math.Exp(logSum / float64(len(tenantTPS)))
	return geo / totalCostPerMinute
}

// OScore is equation (8): SF · lg(P·T·E1·E2 / (R·F·C)) with R, F, and C in
// seconds. Non-positive components yield NaN-free zero.
func OScore(sf, p, t, e1, e2 float64, r, f, c time.Duration) float64 {
	rs, fs, cs := r.Seconds(), f.Seconds(), c.Seconds()
	if p <= 0 || t <= 0 || e1 <= 0 || e2 <= 0 || rs <= 0 || fs <= 0 || cs <= 0 {
		return 0
	}
	return sf * math.Log10(p*t*e1*e2/(rs*fs*cs))
}

// FPartScore is the partition-tolerance extension of the F-Score: the mean
// time from partition injection to restored write service (MTTR) across
// runs. Like F, it rewards architectures that recover autonomously.
func FPartScore(phases []time.Duration) time.Duration {
	return meanDuration(phases)
}

// Scores aggregates one SUT's full PERFECT row (Table IX).
type Scores struct {
	System string
	P      float64
	PStar  float64
	E1     float64
	E1Star float64
	R      time.Duration
	F      time.Duration
	E2     float64
	C      time.Duration
	T      float64
	TStar  float64
}

// O computes the unified metric from the RUC-based components at SF1, the
// scale factor every Table IX cell runs at.
func (s Scores) O() float64 {
	return OScore(1, s.P, s.T, s.E1, s.E2, s.R, s.F, s.C)
}

// OStar computes the unified metric from the actual-cost components at SF1.
func (s Scores) OStar() float64 {
	return OScore(1, s.PStar, s.TStar, s.E1Star, s.E2, s.R, s.F, s.C)
}

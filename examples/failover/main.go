// Fail-over example: kill the RW node of CDB4 and of AWS RDS under steady
// traffic, print CDB4's promote-an-RO timeline
// (paper Figure 7), and compare the two recovery phases (F and R scores).
package main

import (
	"fmt"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

func main() {
	run := func(kind cdb.Kind) evaluator.FailoverResult {
		return evaluator.RunFailover(evaluator.FailoverConfig{
			Kind:        kind,
			Role:        cluster.RW,
			Concurrency: 90,
			Baseline:    8 * time.Second,
			Timeout:     90 * time.Second,
		})
	}

	c4 := run(cdb.CDB4)
	fmt.Println("CDB4 fail-over timeline (memory-disaggregated switch-over, Figure 7):")
	var injected time.Duration
	for _, ev := range c4.Timeline {
		if injected == 0 {
			injected = ev.At
		}
		fmt.Printf("  t+%-7s %s\n", report.Dur(ev.At-injected), ev.Phase)
	}

	rds := run(cdb.RDS)
	fmt.Println("\nRecovery comparison (RW failure, two-phase measurement):")
	fmt.Printf("  %-8s  baseline %7.0f TPS   F(service)=%-6s R(throughput)=%s\n",
		"CDB4", c4.BaselineTPS, report.Dur(c4.F), report.Dur(c4.R))
	fmt.Printf("  %-8s  baseline %7.0f TPS   F(service)=%-6s R(throughput)=%s\n",
		"AWS RDS", rds.BaselineTPS, report.Dur(rds.F), report.Dur(rds.R))
	fmt.Println("\nThe remote buffer pool lets CDB4 promote a replica in seconds, while")
	fmt.Println("RDS replays ARIES redo/undo before the service returns (Table VIII).")
}

package experiments

import (
	"fmt"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/config"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
)

// RunCustomElasticity runs a user-defined elasticity pattern from a props
// document, following the paper's extension mechanism: "users can simply
// modify the length of elastic_testTime (e.g. 4) and add corresponding
// concurrency in the props file (e.g. fourth_con)". Recognized keys:
//
//	elastic_testTime = 4        # number of slots
//	first_con  = 11             # concurrency per slot (second_con, ...)
//	system     = cdb3           # SUT (default cdb3)
//	mix        = 15:5:80        # transaction ratio (default read-write)
//	slot       = 20s            # slot length (default 20s)
//	cost_slots = 10             # costing window in slots
//	seed       = 42
func RunCustomElasticity(propsText string) (string, error) {
	props, err := config.ParseProps(propsText)
	if err != nil {
		return "", err
	}
	cons, err := props.SlotConcurrency()
	if err != nil {
		return "", err
	}
	tau := 0
	for _, c := range cons {
		if c > tau {
			tau = c
		}
	}
	if tau == 0 {
		return "", fmt.Errorf("experiments: custom pattern is all-zero")
	}
	proportions := make([]float64, len(cons))
	for i, c := range cons {
		proportions[i] = float64(c) / float64(tau)
	}
	pat, err := patterns.Custom("custom", proportions)
	if err != nil {
		return "", err
	}

	kind := cdb.Kind(props.Str("system", string(cdb.CDB3)))
	found := false
	for _, k := range cdb.Kinds {
		if k == kind {
			found = true
		}
	}
	if !found {
		return "", fmt.Errorf("experiments: unknown system %q", kind)
	}
	mix := core.MixReadWrite
	if props.Has("mix") {
		mix, err = core.ParseMix(props.Str("mix", ""))
		if err != nil {
			return "", err
		}
	}

	slot, err := props.Duration("slot", 20*time.Second)
	if err != nil {
		return "", err
	}
	costSlots, err := props.Int("cost_slots", 10)
	if err != nil {
		return "", err
	}
	// The evaluator would read a non-positive window as "use the default".
	if slot <= 0 {
		return "", fmt.Errorf("experiments: slot = %q is not positive", props.Str("slot", ""))
	}
	if costSlots <= 0 {
		return "", fmt.Errorf("experiments: cost_slots = %q is not positive", props.Str("cost_slots", ""))
	}
	seed, err := props.Int("seed", 42)
	if err != nil {
		return "", err
	}

	res := evaluator.RunElasticity(evaluator.ElasticityConfig{
		Kind:       kind,
		Pattern:    pat,
		Mix:        mix,
		Tau:        tau,
		SlotLength: slot,
		CostSlots:  costSlots,
		Seed:       int64(seed),
	})

	tbl := report.NewTable(
		fmt.Sprintf("Custom elasticity pattern on %s (slots %v)", kind, cons),
		"Metric", "Value")
	tbl.AddRow("avg TPS", report.F(res.AvgTPS))
	tbl.AddRow("total cost", report.Money(res.TotalCost))
	tbl.AddRow("actual cost", report.Money(res.ActualCost))
	tbl.AddRow("E1-Score", report.F(res.E1Score))
	out := tbl.String() + "\n" + report.Series("vCores", res.Cores, 4) + "\n\nTransitions:\n"
	for _, tr := range res.Transitions {
		out += fmt.Sprintf("  %3d -> %-3d  scaling %-8s cost %s\n",
			tr.FromCon, tr.ToCon, report.Dur(tr.ScalingTime), report.Money(tr.ScalingCost))
	}
	return out, nil
}

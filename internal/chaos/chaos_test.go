package chaos_test

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// deployTargets builds a small real deployment so validation resolves node
// targets and endpoints against the genuine fault surface.
func deployTargets(t *testing.T) (*sim.Sim, *cdb.Deployment, chaos.Targets) {
	t.Helper()
	s := sim.New(epoch)
	d := cdb.MustDeploy(s, cdb.ProfileFor(cdb.RDS), cdb.Options{Replicas: 1})
	return s, d, chaos.Targets{Cluster: d.Cluster, Links: d.Links(), Net: d.Net, Seed: 42}
}

func TestValidateRejectsMalformedSchedules(t *testing.T) {
	_, _, targets := deployTargets(t)
	cases := []struct {
		name string
		ev   chaos.Event
		want string
	}{
		{"negative at", chaos.Event{At: -time.Second, Kind: chaos.DiskStall, Target: "rw"}, "negative At"},
		{"negative duration", chaos.Event{Kind: chaos.DiskStall, Duration: -time.Second, Target: "rw"}, "negative Duration"},
		{"rate above one", chaos.Event{Kind: chaos.IOErrorBurst, Target: "rw", Rate: 1.5}, "outside [0,1]"},
		{"rate below zero", chaos.Event{Kind: chaos.IOErrorBurst, Target: "rw", Rate: -0.1}, "outside [0,1]"},
		{"unknown node", chaos.Event{Kind: chaos.NodeCrash, Target: "ro9"}, "unknown node target"},
		{"unknown kind", chaos.Event{Kind: chaos.Kind("meteor-strike"), Target: "rw"}, "unknown fault kind"},
		{"empty partition group", chaos.Event{Kind: chaos.Partition, GroupA: []string{"rw"}}, "non-empty"},
		{"unknown endpoint", chaos.Event{Kind: chaos.Partition, GroupA: []string{"rw"}, GroupB: []string{"mars"}}, "unknown endpoint"},
		{"lopsided heal", chaos.Event{Kind: chaos.Heal, GroupA: []string{"rw"}}, "both empty"},
	}
	for _, tc := range cases {
		err := chaos.Validate(chaos.Schedule{Events: []chaos.Event{tc.ev}}, targets)
		if err == nil {
			t.Errorf("%s: Validate accepted the event", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidatePartitionNeedsNet(t *testing.T) {
	_, _, targets := deployTargets(t)
	targets.Net = nil
	err := chaos.Validate(chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.Partition, GroupA: []string{"rw"}, GroupB: []string{"ro0"}},
	}}, targets)
	if err == nil || !strings.Contains(err.Error(), "requires a Net") {
		t.Fatalf("err = %v, want a missing-Net error", err)
	}
}

func TestValidateAcceptsTheStandardGauntlet(t *testing.T) {
	_, _, targets := deployTargets(t)
	if err := chaos.Validate(chaos.Standard(20*time.Second), targets); err != nil {
		t.Fatalf("standard schedule rejected: %v", err)
	}
}

func TestNewInjectorSurfacesValidationError(t *testing.T) {
	s, _, targets := deployTargets(t)
	_, err := chaos.NewInjector(s, chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.DiskStall, Target: "nope"},
	}}, targets)
	if err == nil {
		t.Fatal("NewInjector accepted an invalid schedule")
	}
}

// TestSameInstantEventsFireInDeclarationOrder: the injector stable-sorts by
// At, so two events at the same instant fire in declaration order even when
// declared out of At order relative to other events.
func TestSameInstantEventsFireInDeclarationOrder(t *testing.T) {
	s, d, targets := deployTargets(t)
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: 2 * time.Second, Kind: chaos.CacheDrop, Target: "rw"},
		{At: time.Second, Kind: chaos.CacheDrop, Target: "ro0"},
		{At: time.Second, Kind: chaos.CacheDrop, Target: "rw"},
	}}
	inj, err := chaos.NewInjector(s, sched, targets)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	s.Go("ctl", func(p *sim.Proc) {
		p.Sleep(3 * time.Second)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	applied := inj.Applied()
	if len(applied) != 3 {
		t.Fatalf("applied %d faults, want 3", len(applied))
	}
	// Sorted by At; the two t=1s events keep declaration order (ro0 first).
	if applied[0].Target != "ro0" || applied[1].Target != "rw" || applied[2].Target != "rw" {
		t.Fatalf("firing order: %+v", applied)
	}
	if applied[0].At != time.Second || applied[2].At != 2*time.Second {
		t.Fatalf("firing times: %+v", applied)
	}
}

// TestPartitionEventCutsAndHeals drives a partition fault through the
// injector and watches reachability flip on the deployment's Net.
func TestPartitionEventCutsAndHeals(t *testing.T) {
	s, d, targets := deployTargets(t)
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: time.Second, Kind: chaos.Partition, Duration: 2 * time.Second,
			GroupA: []string{"rw"}, GroupB: []string{"ctrl", "ro0"}},
	}}
	inj, err := chaos.NewInjector(s, sched, targets)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	var during, after bool
	s.Go("ctl", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		during = d.Net.Reachable("ctrl", "rw")
		p.Sleep(2 * time.Second)
		after = d.Net.Reachable("ctrl", "rw")
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if during {
		t.Error("rw reachable from ctrl during the partition")
	}
	if !after {
		t.Error("rw still unreachable after the auto-heal")
	}
	if got := inj.Applied()[0].Target; got != "rw|ctrl,ro0" {
		t.Errorf("applied target label = %q", got)
	}
}

// TestAsymPartitionCutsOneDirection: the gray-failure event severs only
// GroupA -> GroupB.
func TestAsymPartitionCutsOneDirection(t *testing.T) {
	s, d, targets := deployTargets(t)
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: time.Second, Kind: chaos.AsymPartition, GroupA: []string{"rw"}, GroupB: []string{"ctrl"}},
		{At: 3 * time.Second, Kind: chaos.Heal},
	}}
	inj, err := chaos.NewInjector(s, sched, targets)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	var outCut, backOK, healed bool
	s.Go("ctl", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		outCut = !d.Net.Reachable("rw", "ctrl")
		backOK = d.Net.Reachable("ctrl", "rw")
		p.Sleep(2 * time.Second)
		healed = d.Net.Reachable("rw", "ctrl")
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !outCut || !backOK {
		t.Errorf("asym cut: rw->ctrl cut=%v, ctrl->rw ok=%v, want true/true", outCut, backOK)
	}
	if !healed {
		t.Error("bare Heal event did not heal all cuts")
	}
}

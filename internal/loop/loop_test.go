package loop

import (
	"errors"
	"fmt"
	"testing"

	"daasscale/internal/actuate"
	"daasscale/internal/engine"
	"daasscale/internal/faults"
	"daasscale/internal/policy"
	"daasscale/internal/resource"
	"daasscale/internal/telemetry"
	"daasscale/internal/workload"
)

// TestSaltsPairwiseDistinct pins the stream-derivation contract: every
// seed stream a loop owns must be decorrelated from every other. The
// engine's base stream uses the raw seed, i.e. salt 0.
func TestSaltsPairwiseDistinct(t *testing.T) {
	salts := map[string]int64{
		"engine-base": 0,
		"fault":       FaultStreamSalt,
		"actuation":   ActuationStreamSalt,
		"migration":   MigrationStreamSalt,
	}
	for a, av := range salts {
		for b, bv := range salts {
			if a != b && av == bv {
				t.Errorf("streams %q and %q share salt %#x", a, b, av)
			}
		}
	}
	if GeneratorSeedOffset == 0 {
		t.Error("generator offset 0 would collide with the engine's base stream")
	}
}

func testEngine(t *testing.T) (*engine.Engine, resource.Container) {
	t.Helper()
	cat := resource.LockStepCatalog()
	cont := cat.AtStep(3)
	eng, err := engine.New(workload.DS2(), cont, 7, engine.Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, cont
}

// scriptedPolicy returns a fixed sequence of decisions, one per Observe.
type scriptedPolicy struct {
	cont resource.Container
	decs []policy.Decision
	idx  int
}

func (p *scriptedPolicy) Name() string { return "scripted" }
func (p *scriptedPolicy) Observe(telemetry.Snapshot) policy.Decision {
	d := p.decs[p.idx%len(p.decs)]
	p.idx++
	return d
}
func (p *scriptedPolicy) Container() resource.Container { return p.cont }

// TestPolicyDeciderHoldsWithheldInterval pins the graceful-degradation
// contract of a lost telemetry payload: no decision, keep the actual
// container and the substrate's memory target, never submit.
func TestPolicyDeciderHoldsWithheldInterval(t *testing.T) {
	cat := resource.LockStepCatalog()
	actual := cat.AtStep(2)
	d := &PolicyDecider{
		Policy:       &scriptedPolicy{cont: actual},
		MemoryTarget: func() float64 { return 1234 },
	}
	dec := d.Decide(StepInfo{Interval: 5, Observed: false, Faulted: true}, telemetry.Snapshot{}, actual)
	if dec.Changed {
		t.Error("withheld interval must not change the container")
	}
	if dec.Submit {
		t.Error("withheld interval must not submit a fresh desire (it would supersede in-flight resizes)")
	}
	if dec.Target.Name != actual.Name {
		t.Errorf("hold target = %s, want the actual container %s", dec.Target.Name, actual.Name)
	}
	if dec.BalloonTargetMB != 1234 {
		t.Errorf("hold memory target = %v, want the substrate's 1234", dec.BalloonTargetMB)
	}
}

// TestPolicyDeciderRederivesChangedAfterBurst pins the burst contract: a
// mid-burst decision may move the policy's internal container while the
// final decision reports no further change — Changed is re-derived
// against the actual container on the faulted path, and only there.
func TestPolicyDeciderRederivesChangedAfterBurst(t *testing.T) {
	cat := resource.LockStepCatalog()
	actual := cat.AtStep(2)
	moved := cat.AtStep(3)

	// The policy's last decision says "no change" but its target differs
	// from the substrate (it moved mid-burst).
	p := &scriptedPolicy{cont: actual, decs: []policy.Decision{{Target: moved, Changed: false}}}
	d := &PolicyDecider{Policy: p, MemoryTarget: func() float64 { return 0 }}
	d.Observe(telemetry.Snapshot{})
	dec := d.Decide(StepInfo{Observed: true, Faulted: true}, telemetry.Snapshot{}, actual)
	if !dec.Changed {
		t.Error("faulted path must re-derive Changed against the actual container")
	}
	if !dec.Submit {
		t.Error("a delivered interval submits")
	}

	// Clean path: the policy's own Changed is authoritative, even when the
	// target happens to equal the actual container.
	p2 := &scriptedPolicy{cont: actual, decs: []policy.Decision{{Target: actual, Changed: true}}}
	d2 := &PolicyDecider{Policy: p2, MemoryTarget: func() float64 { return 0 }}
	d2.Observe(telemetry.Snapshot{})
	dec2 := d2.Decide(StepInfo{Observed: true, Faulted: false}, telemetry.Snapshot{}, actual)
	if !dec2.Changed {
		t.Error("clean path must keep the policy's Changed verbatim")
	}
}

// TestLoopDropAllNeverDecides runs a real engine under a drop-everything
// fault plan: every interval is withheld, so the container never changes
// and, on the actuated path, nothing is ever submitted.
func TestLoopDropAllNeverDecides(t *testing.T) {
	var plan faults.Plan
	plan.Rates[faults.KindDrop] = 1

	for _, actuated := range []bool{false, true} {
		eng, cont := testEngine(t)
		var cfgAct actuate.Config
		if actuated {
			cfgAct = actuate.Config{Seed: 3, LatencyIntervals: 1}
		}
		col := &Collector{}
		lp := New(Config[resource.Container]{
			ID:     "drop-all",
			Engine: eng,
			Seed:   7,
			Jitter: 0.1,
			Decider: NewPolicyDecider(&scriptedPolicy{
				cont: cont,
				decs: []policy.Decision{{Target: resource.LockStepCatalog().Largest(), Changed: true}},
			}, eng),
			Applier:         EngineApplier{Engine: eng},
			Faults:          plan,
			Actuation:       cfgAct,
			Recorder:        col,
			Describe:        DescribeContainer,
			SetMemoryTarget: true,
		})
		for i := 0; i < 10; i++ {
			if err := lp.Step(i, 50); err != nil {
				t.Fatal(err)
			}
		}
		if got := eng.Container().Name; got != cont.Name {
			t.Errorf("actuated=%t: container moved to %s under a fully dropped channel", actuated, got)
		}
		tot := lp.Finalize(10)
		if tot.Changes != 0 {
			t.Errorf("actuated=%t: Changes = %d, want 0", actuated, tot.Changes)
		}
		if tot.Actuation.Submitted != 0 {
			t.Errorf("actuated=%t: Submitted = %d, want 0 (withheld intervals must not submit)", actuated, tot.Actuation.Submitted)
		}
		if len(col.Records) != 10 {
			t.Fatalf("actuated=%t: %d records, want 10", actuated, len(col.Records))
		}
		for _, r := range col.Records {
			if r.Observed || r.Delivered != 0 {
				t.Errorf("actuated=%t: interval %d observed=%t delivered=%d under drop-all", actuated, r.Interval, r.Observed, r.Delivered)
			}
			if r.Faults.Injected[faults.KindDrop] != 1 {
				t.Errorf("interval %d: drop delta = %d, want 1", r.Interval, r.Faults.Injected[faults.KindDrop])
			}
		}
	}
}

// TestLoopRecorderAuditTrail pins the DecisionRecord contents on a clean
// synchronous run: one record per interval, in order, with the decision's
// explanations and target labels.
func TestLoopRecorderAuditTrail(t *testing.T) {
	eng, cont := testEngine(t)
	cat := resource.LockStepCatalog()
	bigger := cat.AtStep(cont.Step + 1)
	col := &Collector{}
	lp := New(Config[resource.Container]{
		ID:     "audit",
		Engine: eng,
		Seed:   7,
		Jitter: 0.1,
		Decider: NewPolicyDecider(&scriptedPolicy{
			cont: cont,
			decs: []policy.Decision{{Target: bigger, Changed: true, Explanations: []string{"scale up: CPU waits dominate"}}},
		}, eng),
		Applier:         EngineApplier{Engine: eng},
		Recorder:        col,
		Describe:        DescribeContainer,
		SetMemoryTarget: true,
	})
	if err := lp.Step(0, 50); err != nil {
		t.Fatal(err)
	}
	if len(col.Records) != 1 {
		t.Fatalf("%d records, want 1", len(col.Records))
	}
	r := col.Records[0]
	if r.Tenant != "audit" || r.Interval != 0 {
		t.Errorf("record identity = %q/%d, want audit/0", r.Tenant, r.Interval)
	}
	if !r.Observed || r.Delivered != 1 || !r.Changed {
		t.Errorf("record flags = observed=%t delivered=%d changed=%t, want true/1/true", r.Observed, r.Delivered, r.Changed)
	}
	if r.Actual != cont.Name || r.Target != bigger.Name {
		t.Errorf("record states = %s→%s, want %s→%s", r.Actual, r.Target, cont.Name, bigger.Name)
	}
	if len(r.Explanations) != 1 || r.Explanations[0] != "scale up: CPU waits dominate" {
		t.Errorf("explanations = %v, want the policy's narrative", r.Explanations)
	}
	if eng.Container().Name != bigger.Name {
		t.Errorf("sync apply did not land: engine runs %s", eng.Container().Name)
	}
	if tot := lp.Finalize(1); tot.Changes != 1 {
		t.Errorf("Changes = %d, want 1", tot.Changes)
	}
}

// refusingApplier refuses the first n applies.
type refusingApplier struct {
	eng     *engine.Engine
	refuse  int
	refused int
}

func (a *refusingApplier) Apply(c resource.Container) error {
	if a.refused < a.refuse {
		a.refused++
		return fmt.Errorf("%w: no room", actuate.ErrRefused)
	}
	a.eng.SetContainer(c)
	return nil
}
func (a *refusingApplier) Actual() resource.Container { return a.eng.Container() }

type recordingReconciler struct{ forced []resource.Container }

func (r *recordingReconciler) ForceActual(c resource.Container) { r.forced = append(r.forced, c) }

// TestLoopSyncRefusalReconciles pins the synchronous refusal contract:
// the substrate keeps its state, the change is not counted, and the
// reconciler is re-anchored to the actual state.
func TestLoopSyncRefusalReconciles(t *testing.T) {
	eng, cont := testEngine(t)
	cat := resource.LockStepCatalog()
	bigger := cat.AtStep(cont.Step + 1)
	rec := &recordingReconciler{}
	lp := New(Config[resource.Container]{
		Engine: eng,
		Seed:   7,
		Jitter: 0.1,
		Decider: NewPolicyDecider(&scriptedPolicy{
			cont: cont,
			decs: []policy.Decision{{Target: bigger, Changed: true}},
		}, eng),
		Applier:         &refusingApplier{eng: eng, refuse: 1},
		Reconciler:      rec,
		SetMemoryTarget: true,
	})
	if err := lp.Step(0, 50); err != nil {
		t.Fatalf("a refusal must not surface as an error: %v", err)
	}
	if eng.Container().Name != cont.Name {
		t.Errorf("refused resize moved the engine to %s", eng.Container().Name)
	}
	if len(rec.forced) != 1 || rec.forced[0].Name != cont.Name {
		t.Errorf("reconciler forced %v, want one re-anchor to %s", rec.forced, cont.Name)
	}
	if err := lp.Step(1, 50); err != nil {
		t.Fatal(err)
	}
	tot := lp.Finalize(2)
	if tot.Changes != 1 {
		t.Errorf("Changes = %d, want 1 (the refused attempt must not count)", tot.Changes)
	}
	if eng.Container().Name != bigger.Name {
		t.Errorf("second attempt should land: engine runs %s", eng.Container().Name)
	}
}

// TestLoopHardErrorSurfaces pins that a non-refusal applier error aborts
// the step.
func TestLoopHardErrorSurfaces(t *testing.T) {
	eng, cont := testEngine(t)
	hard := errors.New("fabric inconsistency")
	lp := New(Config[resource.Container]{
		Engine: eng,
		Seed:   7,
		Jitter: 0.1,
		Decider: NewPolicyDecider(&scriptedPolicy{
			cont: cont,
			decs: []policy.Decision{{Target: resource.LockStepCatalog().Largest(), Changed: true}},
		}, eng),
		Applier:         failingApplier{eng: eng, err: hard},
		SetMemoryTarget: true,
	})
	if err := lp.Step(0, 50); !errors.Is(err, hard) {
		t.Fatalf("err = %v, want the applier's hard error", err)
	}
}

type failingApplier struct {
	eng *engine.Engine
	err error
}

func (a failingApplier) Apply(resource.Container) error { return a.err }
func (a failingApplier) Actual() resource.Container     { return a.eng.Container() }

// fixedApplier is a substrate that never moves: enough for a loop fed
// only through StepSnapshot.
type fixedApplier struct{ cont resource.Container }

func (a fixedApplier) Apply(resource.Container) error { return nil }
func (a fixedApplier) Actual() resource.Container     { return a.cont }

// TestNewWithoutEngineAllocs pins the cost of a serving-shaped loop (no
// engine): New allocates only the loop itself, never a load generator and
// its math/rand source. A loop with an engine must still draw the offered
// loads of a generator seeded at Seed+GeneratorSeedOffset.
func TestNewWithoutEngineAllocs(t *testing.T) {
	cont := resource.LockStepCatalog().AtStep(3)
	cfg := Config[resource.Container]{
		ID:       "serving",
		Seed:     7,
		Decider:  &PolicyDecider{Policy: &scriptedPolicy{cont: cont, decs: []policy.Decision{{Target: cont}}}, MemoryTarget: func() float64 { return 0 }},
		Applier:  fixedApplier{cont},
		Describe: DescribeContainer,
	}
	if lp := New(cfg); lp.gen != nil {
		t.Fatal("a loop without an engine built a load generator")
	}
	if !raceEnabled {
		if got := testing.AllocsPerRun(100, func() { New(cfg) }); got != 1 {
			t.Errorf("New without an engine: %v allocs, want 1 (the loop)", got)
		}
	}

	eng, _ := testEngine(t)
	cfg.Engine, cfg.Jitter = eng, 0.1
	lp := New(cfg)
	lp.RunTicks(50)
	want := workload.NewGenerator(cfg.Seed+GeneratorSeedOffset, cfg.Jitter)
	for i, got := range lp.offered {
		if w := want.Offered(50); got != w {
			t.Fatalf("tick %d: offered %v, want %v", i, got, w)
		}
	}
}

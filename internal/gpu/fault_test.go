package gpu

import (
	"math"
	"reflect"
	"testing"
)

// chargeRound pushes one small reduce round through the context,
// reporting any fault panic as a typed error.
func chargeRound(c *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *DeviceLostError, *TransferError:
				err = e.(error)
			default:
				panic(r)
			}
		}
	}()
	c.Gather("test", 128, Elem64)
	return nil
}

func TestEmptyPlanChangesNothing(t *testing.T) {
	run := func(arm bool) *Stats {
		c := NewContext(3, M2090())
		if arm {
			c.InjectFaults(FaultPlan{})
		}
		for i := 0; i < 10; i++ {
			if err := chargeRound(c); err != nil {
				t.Fatal(err)
			}
			c.Launch("k", every(Work{Flops: 1e6, Bytes: 1e6}))
		}
		return c.Stats()
	}
	plain, armed := run(false), run(true)
	if plain.String() != armed.String() {
		t.Fatalf("empty plan perturbed the ledger:\n%s\nvs\n%s", plain.String(), armed.String())
	}
	c := NewContext(3, M2090())
	c.InjectFaults(FaultPlan{})
	if c.FaultsArmed() {
		t.Fatal("empty plan reports armed")
	}
	if c.FaultCounts() != (FaultCounts{}) {
		t.Fatal("empty plan tallied faults")
	}
}

func TestDeviceDeathFiresOnVirtualClock(t *testing.T) {
	c := NewContext(3, M2090())
	c.Stats().EnableTrace(256)
	c.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 1, At: 40e-6}}})

	// First round: clock still below At — must pass.
	if err := chargeRound(c); err != nil {
		t.Fatalf("death fired early: %v", err)
	}
	// Keep charging until the clock crosses 40us; then the next charge
	// must raise the loss.
	var got *DeviceLostError
	for i := 0; i < 100 && got == nil; i++ {
		if err := chargeRound(c); err != nil {
			var ok bool
			if got, ok = err.(*DeviceLostError); !ok {
				t.Fatalf("unexpected error type: %v", err)
			}
		}
	}
	if got == nil {
		t.Fatal("scheduled death never fired")
	}
	if got.Device != 1 {
		t.Fatalf("wrong device lost: %d", got.Device)
	}
	if got.At < 40e-6 {
		t.Fatalf("death fired before its time: t=%v", got.At)
	}
	if dd := c.DeadDevices(); !reflect.DeepEqual(dd, []int{1}) {
		t.Fatalf("DeadDevices = %v", dd)
	}
	if fc := c.FaultCounts(); fc.DeviceDeaths != 1 {
		t.Fatalf("DeviceDeaths = %d", fc.DeviceDeaths)
	}
	// The death is on the ledger: a "fault" phase row and a trace event.
	if c.Stats().Phase(PhaseFault).Rounds == 0 {
		t.Fatal("no fault phase row recorded")
	}
	found := false
	for _, e := range c.Stats().Trace() {
		if e.Kind == "fault-death" && e.Device == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no fault-death trace event")
	}
}

func TestSurvivorsViewRemapsCharges(t *testing.T) {
	c := NewContext(3, M2090())
	c.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 1, At: 0}}})
	if err := chargeRound(c); err == nil {
		t.Fatal("expected immediate death")
	}
	surv, err := c.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if surv.NumDevices != 2 {
		t.Fatalf("survivors = %d devices", surv.NumDevices)
	}
	if alive := surv.AliveDevices(); !reflect.DeepEqual(alive, []int{0, 2}) {
		t.Fatalf("alive = %v", alive)
	}
	// Charges through the view are attributed to physical ids 0 and 2;
	// the dead device 1 accumulates nothing further.
	before := c.Stats().DevicePhase(1, "test")
	surv.Launch("test", every(Work{Flops: 1e6, Bytes: 1e6}))
	if err := chargeRound(surv); err != nil {
		t.Fatalf("survivor charge failed: %v", err)
	}
	if got := c.Stats().DevicePhase(1, "test"); got != before {
		t.Fatal("dead device accumulated charges through the survivors view")
	}
	if c.Stats().DevicePhase(2, "test").Kernels == 0 {
		t.Fatal("survivor device 2 not charged under its physical id")
	}
	// The view shares the tally and the root keeps the plan state.
	surv.Launch("test", every(Work{Flops: 1, Bytes: 1}))
	if c.FaultCounts() != surv.FaultCounts() {
		t.Fatal("view does not share fault state")
	}
}

func TestTransferFaultsDeterministicAndCharged(t *testing.T) {
	run := func() (*Stats, FaultCounts) {
		c := NewContext(2, M2090())
		c.InjectFaults(FaultPlan{Seed: 7, TransferFaultProb: 0.3})
		for i := 0; i < 50; i++ {
			if err := chargeRound(c); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		return c.Stats(), c.FaultCounts()
	}
	s1, f1 := run()
	s2, f2 := run()
	if f1 != f2 {
		t.Fatalf("fault stream not deterministic: %+v vs %+v", f1, f2)
	}
	if f1.TransferFaults == 0 {
		t.Fatal("no transfer faults drawn at prob 0.3 over 50 rounds")
	}
	if f1.TransferRetries == 0 || f1.BackoffSeconds <= 0 {
		t.Fatalf("retries not tallied: %+v", f1)
	}
	if s1.TotalTime() != s2.TotalTime() {
		t.Fatalf("virtual clocks diverge: %v vs %v", s1.TotalTime(), s2.TotalTime())
	}
	// Recovery overhead is on the ledger's fault phase, and the run is
	// strictly slower than a fault-free one.
	if s1.Phase(PhaseFault).CommTime <= 0 {
		t.Fatal("no fault-phase time charged")
	}
	clean := NewContext(2, M2090())
	for i := 0; i < 50; i++ {
		_ = chargeRound(clean)
	}
	if s1.TotalTime() <= clean.Stats().TotalTime() {
		t.Fatal("faulted run not slower than fault-free run")
	}
}

// TestTransferErrorAfterRetryExhaustion pins the shipped retry constants:
// a round that always faults gives up after 4 attempts, having waited out
// three backoffs of 50, 100 and 200 us.
func TestTransferErrorAfterRetryExhaustion(t *testing.T) {
	c := NewContext(2, M2090())
	c.InjectFaults(FaultPlan{Seed: 1, TransferFaultProb: 1})
	err := chargeRound(c)
	te, ok := err.(*TransferError)
	if !ok {
		t.Fatalf("want *TransferError, got %v", err)
	}
	if te.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", te.Attempts)
	}
	fc := c.FaultCounts()
	if fc.TransferRetries != 3 {
		t.Fatalf("retries = %d, want 3 (three backoffs before giving up)", fc.TransferRetries)
	}
	if want := 3.5e-4; math.Abs(fc.BackoffSeconds-want) > 1e-15 {
		t.Fatalf("BackoffSeconds = %g, want %g", fc.BackoffSeconds, want)
	}
}

func TestMaxTransferFaultsCapsInjection(t *testing.T) {
	c := NewContext(2, M2090())
	c.InjectFaults(FaultPlan{Seed: 3, TransferFaultProb: 1, MaxTransferFaults: 2})
	for i := 0; i < 20; i++ {
		if err := chargeRound(c); err != nil {
			t.Fatalf("capped plan still escalated: %v", err)
		}
	}
	if fc := c.FaultCounts(); fc.TransferFaults != 2 {
		t.Fatalf("TransferFaults = %d, want cap 2", fc.TransferFaults)
	}
}

func TestStragglerSlowsItsDeviceOnly(t *testing.T) {
	base := NewContext(3, M2090())
	base.Launch("k", every(Work{Flops: 1e9}))
	baseTime := base.Stats().Phase("k").DeviceTime

	c := NewContext(3, M2090())
	c.InjectFaults(FaultPlan{Stragglers: []Straggler{{Device: 2, Factor: 3}}})
	c.Launch("k", every(Work{Flops: 1e9}))
	slowed := c.Stats().Phase("k").DeviceTime
	// The phase aggregates at the max over devices: one straggler at 3x
	// drags the whole launch to ~3x.
	if slowed < 2.5*baseTime {
		t.Fatalf("straggler did not slow the phase: %v vs base %v", slowed, baseTime)
	}
	fast := c.Stats().DevicePhase(0, "k").DeviceTime
	slow := c.Stats().DevicePhase(2, "k").DeviceTime
	if math.Abs(slow-3*fast) > 1e-12 {
		t.Fatalf("per-device attribution wrong: fast %v slow %v", fast, slow)
	}
	if c.FaultCounts().StragglerKernels == 0 {
		t.Fatal("straggler kernels not tallied")
	}
}

func TestRepairClearsDeadAndConsumedDeathsStayConsumed(t *testing.T) {
	c := NewContext(2, M2090())
	c.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 0, At: 0}}, Stragglers: []Straggler{{Device: 1, Factor: 2}}})
	if err := chargeRound(c); err == nil {
		t.Fatal("expected death")
	}
	c.Repair()
	if len(c.DeadDevices()) != 0 {
		t.Fatal("Repair left dead devices")
	}
	for i := 0; i < 10; i++ {
		if err := chargeRound(c); err != nil {
			t.Fatalf("consumed death re-fired: %v", err)
		}
	}
	// Stragglers are cleared too.
	before := c.Stats().Phase("k").DeviceTime
	c.Launch("k", every(Work{Flops: 1e9}))
	clean := NewContext(2, M2090())
	clean.Launch("k", every(Work{Flops: 1e9}))
	if got, want := c.Stats().Phase("k").DeviceTime-before, clean.Stats().Phase("k").DeviceTime; math.Abs(got-want) > 1e-12 {
		t.Fatalf("straggler survived Repair: %v vs %v", got, want)
	}
	// The monotone tally is preserved across Repair.
	if c.FaultCounts().DeviceDeaths != 1 {
		t.Fatal("Repair erased the fault tally")
	}
}

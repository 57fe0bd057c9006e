package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/ortho"
)

// planDepths lists the MPK depths the problem's plan currently holds.
func planDepths(p *Problem) []int {
	p.plan.mu.Lock()
	defer p.plan.mu.Unlock()
	var out []int
	for _, m := range p.plan.depths {
		out = append(out, m.S)
	}
	slices.Sort(out)
	return out
}

func planMatrix(p *Problem, s int) *dist.Matrix {
	p.plan.mu.Lock()
	defer p.plan.mu.Unlock()
	for _, m := range p.plan.depths {
		if m.S == s {
			return m
		}
	}
	return nil
}

// TestSecondSolveDistributesNothing: NewProblem distributes nothing, the
// first CA-GMRES solve builds exactly one distribution (depth s — none at
// depth 1), and SetB + a second solve reuse it: same device matrices,
// same result as a cold problem, and far fewer allocations than the solve
// that had to build them.
func TestSecondSolveDistributesNothing(t *testing.T) {
	a := laplace2D(30, 30, 0.3)
	b1, b2 := randomRHS(900, 1), randomRHS(900, 2)
	opts := Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"}
	ctx := gpu.NewContext(3, gpu.M2090())
	p, err := NewProblem(ctx, a, b1, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := planDepths(p); len(got) != 0 {
		t.Fatalf("NewProblem distributed depths %v", got)
	}
	if _, err := CAGMRES(p, opts); err != nil {
		t.Fatal(err)
	}
	if got := planDepths(p); !slices.Equal(got, []int{5}) {
		t.Fatalf("first solve distributed depths %v, want [5]", got)
	}
	first := planMatrix(p, 5)

	if err := p.SetB(b2); err != nil {
		t.Fatal(err)
	}
	warm, err := CAGMRES(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := planDepths(p); !slices.Equal(got, []int{5}) || planMatrix(p, 5) != first {
		t.Fatalf("second solve redistributed: depths %v", got)
	}
	cold, err := NewProblem(gpu.NewContext(3, gpu.M2090()), a, b2, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CAGMRES(cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(warm.X, want.X) || warm.Iters != want.Iters ||
		warm.Stats.String() != want.Stats.String() || warm.Stats.TotalTime() != want.Stats.TotalTime() {
		t.Fatal("solve on a reused plan differs from a cold solve")
	}

	// GMRES asks for depth 1; it joins the plan without disturbing depth 5.
	if _, err := GMRES(p, Options{M: 20, Tol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	if got := planDepths(p); !slices.Equal(got, []int{1, 5}) || planMatrix(p, 5) != first {
		t.Fatalf("after GMRES: depths %v", got)
	}

	distribute := testing.AllocsPerRun(3, func() { dist.Distribute(ctx, p.A, p.Layout, 5) })
	solveCold := testing.AllocsPerRun(3, func() {
		p.plan = &distPlan{}
		if _, err := CAGMRES(p, opts); err != nil {
			t.Fatal(err)
		}
	})
	solveWarm := testing.AllocsPerRun(3, func() {
		if _, err := CAGMRES(p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if solveCold-solveWarm < distribute-1 {
		t.Fatalf("warm solve saves %v allocations over a cold one, a distribution is %v",
			solveCold-solveWarm, distribute)
	}
}

// TestPlanKeepsFewDepths: a problem solved at ever new step sizes keeps
// only the most recently used distributions.
func TestPlanKeepsFewDepths(t *testing.T) {
	a := laplace2D(12, 12, 0.3)
	p, err := NewProblem(gpu.NewContext(2, gpu.M2090()), a, randomRHS(144, 1), Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= maxPlanDepths+3; s++ {
		p.distributed(s)
		p.distributed(1) // keeps depth 1 recent
	}
	got := planDepths(p)
	if len(got) != maxPlanDepths || got[0] != 1 || got[len(got)-1] != maxPlanDepths+3 {
		t.Fatalf("plan holds depths %v, want %d of them including 1 and %d", got, maxPlanDepths, maxPlanDepths+3)
	}
}

// TestHealingRedistributesOnTheNewLayout: a problem that already carries
// a 3-device plan loses a device mid-solve. The healed attempt must build
// its own distribution for the 2-device layout — Repartition starts with
// an empty plan — and replay the healed solve of a cold problem bit for
// bit; the original problem keeps its 3-device plan untouched.
func TestHealingRedistributesOnTheNewLayout(t *testing.T) {
	at := midSolveDeath(t, 3, CAGMRES, chaosOpts())
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)
	plan := gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 1, At: at}}}

	coldCtx := gpu.NewContext(3, gpu.M2090())
	coldCtx.InjectFaults(plan)
	cold, err := NewProblem(coldCtx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CAGMRES(cold, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}

	ctx := gpu.NewContext(3, gpu.M2090())
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CAGMRES(p, chaosOpts()); err != nil { // fault-free: memoizes the 3-device plan
		t.Fatal(err)
	}
	warmPlan := planMatrix(p, chaosOpts().S)
	ctx.InjectFaults(plan)
	got, err := CAGMRES(p, chaosOpts())
	if err != nil {
		t.Fatalf("solve on a planned problem did not survive the death: %v", err)
	}
	if got.Faults == nil || got.Faults.Repartitions < 1 {
		t.Fatalf("no repartition recorded: %+v", got.Faults)
	}
	if !slices.Equal(got.X, want.X) || got.Iters != want.Iters || got.RelRes != want.RelRes ||
		got.Stats.TotalTime() != want.Stats.TotalTime() {
		t.Fatal("healed solve on a planned problem differs from the healed solve of a cold one")
	}
	if planMatrix(p, chaosOpts().S) != warmPlan || len(warmPlan.Dev) != 3 {
		t.Fatal("healing disturbed the original problem's plan")
	}

	surv, err := ctx.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	healed := p.Repartition(surv)
	if healed.plan == p.plan || len(planDepths(healed)) != 0 {
		t.Fatal("Repartition inherited the plan of the old layout")
	}
	if m := healed.distributed(5); len(m.Dev) != 2 || m.Layout != healed.Layout {
		t.Fatalf("healed problem distributed over %d devices", len(m.Dev))
	}
}

// TestApplyJacobiDropsThePlan: scaling the matrix values invalidates any
// distribution built from the old ones.
func TestApplyJacobiDropsThePlan(t *testing.T) {
	a := laplace2D(10, 10, 0.3)
	p, err := NewProblem(gpu.NewContext(2, gpu.M2090()), a, randomRHS(100, 1), Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	p.distributed(3)
	p.ApplyJacobi()
	if got := planDepths(p); len(got) != 0 {
		t.Fatalf("plan survived ApplyJacobi: depths %v", got)
	}
}

// TestOnContextSharesPlanNotRHS: copies of one prepared problem on
// different contexts solve different right-hand sides at the same time —
// run under -race — sharing one distribution, and each gets the solution
// a private problem would. Then GMRES and CA-GMRES run at once on two
// copies, one of them healing after a device loss, and each is bit for
// bit the same solve run alone: the per-call state of the solvers' forks
// lives on the attempt, never on the shared plan. Last, CA solves that
// share one Options.OrthoImpl value run at once, each the same as alone.
func TestOnContextSharesPlanNotRHS(t *testing.T) {
	a := laplace2D(24, 24, 0.4)
	opts := Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"}
	base, err := Prepare(gpu.NewContext(3, gpu.M2090()), a, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.OnContext(gpu.NewContext(2, gpu.M2090())); err == nil {
		t.Fatal("OnContext accepted a context of another device count")
	}
	const workers = 4
	got := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := base.OnContext(gpu.NewContext(3, gpu.M2090()))
			if err == nil {
				err = p.SetB(randomRHS(576, int64(w)))
			}
			if err == nil {
				got[w], err = CAGMRES(p, opts)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if base.B != nil {
		t.Fatal("a copy's SetB reached the shared problem")
	}
	if d := planDepths(base); !slices.Equal(d, []int{5}) {
		t.Fatalf("shared plan holds depths %v, want one distribution at depth 5", d)
	}
	for w := 0; w < workers; w++ {
		p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), a, randomRHS(576, int64(w)), KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CAGMRES(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[w].X, want.X) || got[w].Iters != want.Iters ||
			got[w].Stats.TotalTime() != want.Stats.TotalTime() {
			t.Fatalf("worker %d: shared-plan solve differs from a private one", w)
		}
	}

	fresh, err := base.OnContext(gpu.NewContext(3, gpu.M2090()))
	if err == nil {
		err = fresh.SetB(randomRHS(576, 20))
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CAGMRES(fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	death := gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 1, At: ref.Stats.TotalTime() / 2}}}
	arms := []struct {
		solve func(*Problem, Options) (*Result, error)
		opts  Options
		heals bool
	}{{GMRES, Options{M: 20, Tol: 1e-8}, false}, {CAGMRES, opts, true}}
	run := func(i int) (*Result, error) {
		ctx := gpu.NewContext(3, gpu.M2090())
		if arms[i].heals {
			ctx.InjectFaults(death)
		}
		p, err := base.OnContext(ctx)
		if err == nil {
			err = p.SetB(randomRHS(576, int64(20+i)))
		}
		if err != nil {
			return nil, err
		}
		return arms[i].solve(p, arms[i].opts)
	}
	alone := make([]*Result, len(arms))
	for i := range arms {
		if alone[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	if f := alone[1].Faults; f == nil || f.Repartitions != 1 {
		t.Fatalf("the faulted copy did not heal: %+v", f)
	}
	at := make([]*Result, len(arms))
	for i := range arms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if at[i], err = run(i); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range arms {
		if !slices.Equal(at[i].X, alone[i].X) || at[i].Iters != alone[i].Iters ||
			at[i].Stats.TotalTime() != alone[i].Stats.TotalTime() ||
			!reflect.DeepEqual(at[i].Faults, alone[i].Faults) {
			t.Fatalf("arm %d: the concurrent solve differs from the same solve run alone", i)
		}
	}

	// One OrthoImpl value shared by concurrent CA solves: each attempt
	// binds a copy of it to its own workspace, so nothing one solve's
	// windows write reaches another's.
	shared := Options{M: 20, S: 5, Tol: 1e-8, OrthoImpl: ortho.Reorth{Inner: ortho.CholQR{}}}
	solve := func(w int) (*Result, error) {
		p, err := base.OnContext(gpu.NewContext(3, gpu.M2090()))
		if err == nil {
			err = p.SetB(randomRHS(576, int64(40+w)))
		}
		if err != nil {
			return nil, err
		}
		return CAGMRES(p, shared)
	}
	serial := make([]*Result, workers)
	for w := range serial {
		if serial[w], err = solve(w); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[w], err = solve(w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := range serial {
		if !slices.Equal(got[w].X, serial[w].X) || got[w].Iters != serial[w].Iters ||
			got[w].Stats.TotalTime() != serial[w].Stats.TotalTime() {
			t.Fatalf("worker %d: a solve sharing the OrthoImpl differs from the same solve run alone", w)
		}
	}
}

package twoface

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/core"
)

// The chaos harness: Two-Face and every baseline run under randomized
// seeded fault plans, and each run must (a) produce a result bit-identical
// to the fault-free run — survivable faults are absorbed by retry and
// degradation, never by changing what data moves — and (b) inflate the
// modeled makespan by a bounded, non-negative amount that the resilience
// counters attribute.

const chaosNodes = 4

var chaosAlgos = []string{"twoface", "DS1", "DS2", "Allgather", "AsyncCoarse", "AsyncFine"}

func chaosWorkload(t *testing.T) (*SparseMatrix, *DenseMatrix) {
	t.Helper()
	a := Generate("queen", 0.02, 42)
	return a, RandomDense(int(a.NumCols), 8, 1)
}

// runChaosAlgo executes one algorithm on a fresh system, under the given
// fault plan (nil = healthy).
func runChaosAlgo(t *testing.T, algo string, a *SparseMatrix, b *DenseMatrix, plan *FaultPlan) *Result {
	t.Helper()
	sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols, Chaos: plan})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if algo == "twoface" {
		pl, err := sys.Preprocess(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err = pl.Multiply(b)
		if err != nil {
			t.Fatalf("%s under chaos: %v", algo, err)
		}
		return res
	}
	res, err = sys.RunBaseline(Baseline(algo), a, b)
	if err != nil {
		t.Fatalf("%s under chaos: %v", algo, err)
	}
	return res
}

func bitIdentical(x, y *DenseMatrix) error {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			return fmt.Errorf("element %d: %v vs %v", i, x.Data[i], y.Data[i])
		}
	}
	return nil
}

// ulpEquivalent accepts the reassociation noise of concurrent accumulation:
// multi-worker runs reorder float additions by scheduling, so even two
// fault-free runs of the async algorithms differ by ~1e-13 relative. Any
// element past 1e-9 means wrong data moved, not reordered sums — see
// TestChaosSingleWorkerExact for the bit-exact single-worker case.
func ulpEquivalent(x, y *DenseMatrix) error {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return fmt.Errorf("shape %dx%d vs %dx%d", x.Rows, x.Cols, y.Rows, y.Cols)
	}
	for i := range x.Data {
		if !within(x.Data[i], y.Data[i], 1e-9) {
			return fmt.Errorf("element %d: %v vs %v", i, x.Data[i], y.Data[i])
		}
	}
	return nil
}

// TestChaosSurvivableBitExact is the tentpole acceptance test: randomized
// survivable fault plans leave every algorithm's result identical to the
// fault-free run — up to the reassociation ulps multi-worker scheduling
// already introduces between two healthy runs — with non-negative
// attributed makespan inflation.
func TestChaosSurvivableBitExact(t *testing.T) {
	a, b := chaosWorkload(t)
	clean := map[string]*Result{}
	for _, algo := range chaosAlgos {
		clean[algo] = runChaosAlgo(t, algo, a, b, nil)
	}
	for _, seed := range []uint64{3, 11, 27} {
		plan := RandomFaultPlan(seed, chaosNodes)
		if !plan.Survivable() {
			t.Fatalf("seed %d: RandomFaultPlan must be survivable", seed)
		}
		var anyFaulted bool
		for _, algo := range chaosAlgos {
			res := runChaosAlgo(t, algo, a, b, plan)
			if err := ulpEquivalent(res.C, clean[algo].C); err != nil {
				t.Errorf("seed %d, %s: result differs from fault-free run: %v", seed, algo, err)
			}
			rs := res.TotalResilience
			if rs.Faulted() {
				anyFaulted = true
			}
			// Inflation is bounded below by zero: the plan only stretches
			// charges (factors >= 1) and adds retry/backoff/delay time.
			infl := res.ModeledSeconds - clean[algo].ModeledSeconds
			if infl < -1e-12*clean[algo].ModeledSeconds {
				t.Errorf("seed %d, %s: chaotic makespan %v below fault-free %v", seed, algo, res.ModeledSeconds, clean[algo].ModeledSeconds)
			}
			// Attribution: whenever the run absorbed faults, the counters
			// must carry the time the ledger was inflated by.
			if rs.Faulted() && rs.BackoffSeconds+rs.DelaySeconds > 0 && infl <= 0 {
				t.Errorf("seed %d, %s: %v backoff+delay absorbed but makespan did not move", seed, algo, rs.BackoffSeconds+rs.DelaySeconds)
			}
			if len(res.Resilience) != chaosNodes {
				t.Errorf("seed %d, %s: per-rank resilience missing (%d entries)", seed, algo, len(res.Resilience))
			}
		}
		if !anyFaulted {
			t.Errorf("seed %d: no algorithm recorded any fault handling; the plan is vacuous", seed)
		}
	}
}

// TestChaosSameSeedReproduces: the same -chaos-seed replays identical fault
// events — exact integer retry/degradation counts — and a modeled makespan
// identical to float tolerance (concurrent workers may reorder float
// summation by ulps; see TestChaosSingleWorkerExact for the exact case).
func TestChaosSameSeedReproduces(t *testing.T) {
	a, b := chaosWorkload(t)
	plan := RandomFaultPlan(7, chaosNodes)
	first := runChaosAlgo(t, "twoface", a, b, plan)
	for i := 0; i < 3; i++ {
		res := runChaosAlgo(t, "twoface", a, b, plan)
		if err := ulpEquivalent(res.C, first.C); err != nil {
			t.Fatalf("replay %d: C differs: %v", i, err)
		}
		for rank := range res.Resilience {
			got, want := res.Resilience[rank], first.Resilience[rank]
			if got.GetRetries != want.GetRetries || got.GetExhausted != want.GetExhausted ||
				got.Degradations != want.Degradations || got.DegradedElems != want.DegradedElems ||
				got.LegRetries != want.LegRetries {
				t.Fatalf("replay %d, rank %d: fault counts differ: %+v vs %+v", i, rank, got, want)
			}
			if !within(got.BackoffSeconds, want.BackoffSeconds, 1e-9) || !within(got.DelaySeconds, want.DelaySeconds, 1e-9) {
				t.Fatalf("replay %d, rank %d: fault seconds differ: %+v vs %+v", i, rank, got, want)
			}
		}
		if !within(res.ModeledSeconds, first.ModeledSeconds, 1e-9) {
			t.Fatalf("replay %d: makespan %v vs %v", i, res.ModeledSeconds, first.ModeledSeconds)
		}
	}
}

func within(a, b, rel float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*math.Max(scale, 1e-300)
}

// TestChaosSingleWorkerExact: with one worker per queue there is no
// concurrent float summation, so the same seed reproduces the modeled
// makespan and every resilience counter bit-for-bit.
func TestChaosSingleWorkerExact(t *testing.T) {
	a, b := chaosWorkload(t)
	plan := RandomFaultPlan(7, chaosNodes)

	runOnce := func() (*core.Result, []cluster.ResilienceStats) {
		sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols})
		if err != nil {
			t.Fatal(err)
		}
		net := sys.Net(a.NumRows)
		params := core.Params{P: chaosNodes, K: b.Cols, W: 8, Coef: DeriveCoefficients(net)}
		prep, err := core.Preprocess(a, params)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := cluster.New(chaosNodes, net)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := plan.Injector(chaosNodes)
		if err != nil {
			t.Fatal(err)
		}
		clu.SetFaultInjector(inj)
		res, err := core.Exec(prep, b, clu, core.ExecOptions{AsyncWorkers: 1, SyncWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Resilience
	}

	r1, s1 := runOnce()
	r2, s2 := runOnce()
	if r1.ModeledSeconds != r2.ModeledSeconds {
		t.Errorf("single-worker makespan not bit-identical: %v vs %v", r1.ModeledSeconds, r2.ModeledSeconds)
	}
	for rank := range s1 {
		if s1[rank] != s2[rank] {
			t.Errorf("rank %d: resilience not bit-identical: %+v vs %+v", rank, s1[rank], s2[rank])
		}
	}
	if err := bitIdentical(r1.C, r2.C); err != nil {
		t.Errorf("single-worker C not bit-identical: %v", err)
	}
}

// TestChaosTraceAttribution: retries and degradations surface as trace
// events, so the exported trace attributes the inflation.
func TestChaosTraceAttribution(t *testing.T) {
	a, b := chaosWorkload(t)
	plan := RandomFaultPlan(7, chaosNodes)
	sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols, Chaos: plan, TraceEvents: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TotalResilience.Faulted() {
		t.Skip("plan injected nothing on this workload; nothing to attribute")
	}
	var retries, degrades int
	for _, ev := range res.TraceEvents {
		switch ev.Op {
		case cluster.TraceRetry:
			retries++
		case cluster.TraceDegrade:
			degrades++
		}
	}
	if int64(retries) != res.TotalResilience.GetRetries+res.TotalResilience.LegRetries {
		t.Errorf("trace has %d retry events, counters say %d", retries, res.TotalResilience.GetRetries+res.TotalResilience.LegRetries)
	}
	if int64(degrades) != res.TotalResilience.Degradations {
		t.Errorf("trace has %d degrade events, counters say %d", degrades, res.TotalResilience.Degradations)
	}
}

// TestChaosCrashFailsCleanly: a non-survivable plan (rank crash) must fail
// the run with typed errors, not hang it, and the error must be observable
// through the public facade.
func TestChaosCrashFailsCleanly(t *testing.T) {
	a, b := chaosWorkload(t)
	plan := &FaultPlan{Crashes: []chaos.Crash{{Rank: 1, At: 1e-12}}}
	sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols, Chaos: plan})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pl.Multiply(b)
	if err == nil {
		t.Fatal("crash plan must fail the multiply")
	}
	if !errors.Is(err, cluster.ErrCrashed) {
		t.Errorf("error %v does not wrap ErrCrashed", err)
	}
	if !errors.Is(err, cluster.ErrAborted) {
		t.Errorf("error %v does not wrap ErrAborted", err)
	}
}

// --- Fail-recover: checkpointed crash recovery (DESIGN.md section 12) ---

// TestChaosRecoverySingleWorkerExact is the recovery acceptance test: a
// seeded crash plan with recovery enabled completes without abort, the
// recovered C agrees with the fault-free run, and a same-seed replay is
// bit-identical in C, makespan, and every resilience counter. Runs the default
// batched schedule and its one-stripe-per-batch twin (so recovery units that
// are single stripes stay covered), with crashes at the very start and in the
// middle of the run.
//
// Same-seed replay cannot see drift between commits, so each run's ledger is
// also pinned: ModeledSeconds, every rank's Breakdown and ResilienceStats must
// equal internal/core/testdata/recovery_ledger.json exactly. To regenerate
// after an intended accounting change, delete that file and run the test once.
func TestChaosRecoverySingleWorkerExact(t *testing.T) {
	a, b := chaosWorkload(t)
	legs := []struct {
		name          string
		maxBatchBytes int64
		rowCacheElems int64
	}{
		{name: "batched"},
		{name: "perstripe", maxBatchBytes: 1, rowCacheElems: -1},
	}
	var ledger []recoveryLedger
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			runOnce := func(plan *FaultPlan, recovery bool, interval float64) *core.Result {
				t.Helper()
				sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols})
				if err != nil {
					t.Fatal(err)
				}
				net := sys.Net(a.NumRows)
				params := core.Params{P: chaosNodes, K: b.Cols, W: 8, Coef: DeriveCoefficients(net),
					MaxBatchBytes: leg.maxBatchBytes, RowCacheElems: leg.rowCacheElems}
				prep, err := core.Preprocess(a, params)
				if err != nil {
					t.Fatal(err)
				}
				clu, err := cluster.New(chaosNodes, net)
				if err != nil {
					t.Fatal(err)
				}
				if plan != nil {
					inj, err := plan.Injector(chaosNodes)
					if err != nil {
						t.Fatal(err)
					}
					clu.SetFaultInjector(inj)
				}
				clu.SetRecovery(recovery)
				res, err := core.Exec(prep, b, clu, core.ExecOptions{AsyncWorkers: 1, SyncWorkers: 1, CheckpointInterval: interval})
				if err != nil {
					t.Fatalf("exec (recovery=%v): %v", recovery, err)
				}
				return res
			}

			clean := runOnce(nil, false, 0)
			// The miniature workload's makespan is shorter than the automatic
			// ~2%-overhead cadence, so pin an interval that forces
			// checkpoints before the mid-run crashes.
			interval := clean.ModeledSeconds / 20
			for _, frac := range []float64{0, 0.3, 0.7} {
				at := 1e-12 + frac*clean.ModeledSeconds
				plan := &FaultPlan{Crashes: []chaos.Crash{{Rank: 1, At: at}}}
				r1 := runOnce(plan, true, interval)
				r2 := runOnce(plan, true, interval)
				ledger = append(ledger, recoveryLedger{
					Leg: leg.name, Frac: frac, ModeledSeconds: r1.ModeledSeconds,
					Breakdowns: r1.Breakdowns, Resilience: r1.Resilience,
				})

				rs := r1.TotalResilience
				if rs.Crashes != 1 {
					t.Errorf("frac %v: Crashes = %d, want 1", frac, rs.Crashes)
				}
				if rs.RecoveredStripes+rs.RecoveredPanels == 0 {
					t.Errorf("frac %v: nothing re-executed: %+v", frac, rs)
				}
				if rs.RecoverySeconds <= 0 {
					t.Errorf("frac %v: no recovery time attributed: %+v", frac, rs)
				}
				// The recovered result must agree with the fault-free run.
				if err := ulpEquivalent(r1.C, clean.C); err != nil {
					t.Errorf("frac %v: recovered C differs from fault-free: %v", frac, err)
				}
				// And the replay must be an exact reproduction.
				if err := bitIdentical(r1.C, r2.C); err != nil {
					t.Errorf("frac %v: replay C not bit-identical: %v", frac, err)
				}
				if r1.ModeledSeconds != r2.ModeledSeconds {
					t.Errorf("frac %v: replay makespan %v vs %v", frac, r1.ModeledSeconds, r2.ModeledSeconds)
				}
				for rank := range r1.Resilience {
					if r1.Resilience[rank] != r2.Resilience[rank] {
						t.Errorf("frac %v, rank %d: resilience not bit-identical:\n  %+v\n  %+v",
							frac, rank, r1.Resilience[rank], r2.Resilience[rank])
					}
				}
				// A mid-run crash leaves time for checkpoints at the auto
				// cadence, and the checkpoint cut must shrink the redo.
				if frac > 0 && rs.Checkpoints == 0 {
					t.Errorf("frac %v: no checkpoints written before the crash", frac)
				}
			}
		})
	}
	if !t.Failed() {
		checkRecoveryLedger(t, ledger)
	}
}

// recoveryLedger is one pinned run of TestChaosRecoverySingleWorkerExact.
type recoveryLedger struct {
	Leg            string
	Frac           float64
	ModeledSeconds float64
	Breakdowns     []cluster.Breakdown
	Resilience     []cluster.ResilienceStats
}

const recoveryLedgerPath = "internal/core/testdata/recovery_ledger.json"

// checkRecoveryLedger requires got to equal the committed golden exactly
// (encoding/json round-trips float64 bit-for-bit). The ledger is plain Go
// float arithmetic, which the compiler may fuse into multiply-adds on other
// architectures, so the pin holds on amd64 only.
func checkRecoveryLedger(t *testing.T, got []recoveryLedger) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("recovery ledger golden is pinned on amd64, not %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile(recoveryLedgerPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recoveryLedgerPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — inspect, commit and rerun", recoveryLedgerPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []recoveryLedger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", recoveryLedgerPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovery ledger has %d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("recovery ledger drifted (%s, frac %v):\n got  %+v\n want %+v", got[i].Leg, got[i].Frac, got[i], want[i])
		}
	}
}

// TestChaosRecoveryFacade: the public facade path — Options.Recover on a
// crash-extended random plan — completes Multiply under concurrent workers
// and matches the fault-free run within reassociation tolerance.
func TestChaosRecoveryFacade(t *testing.T) {
	a, b := chaosWorkload(t)
	clean := runChaosAlgo(t, "twoface", a, b, nil)
	plan := RandomFaultPlan(9, chaosNodes)
	plan.Crashes = append(plan.Crashes, chaos.Crash{Rank: 2, At: 0.4 * clean.ModeledSeconds})
	if !plan.Recoverable(chaosNodes) {
		t.Fatal("plan must be recoverable")
	}

	sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols, Chaos: plan, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Multiply(b)
	if err != nil {
		t.Fatalf("recovery-enabled multiply must complete: %v", err)
	}
	if err := ulpEquivalent(res.C, clean.C); err != nil {
		t.Errorf("recovered C differs from fault-free run: %v", err)
	}
	rs := res.TotalResilience
	if rs.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", rs.Crashes)
	}
	if rs.RecoveredStripes+rs.RecoveredPanels == 0 || rs.RecoverySeconds <= 0 {
		t.Errorf("recovery not attributed: %+v", rs)
	}
}

// TestChaosRecoveryAllCrashAborts: when every rank is doomed there is no
// survivor to recover, and the run must still fail cleanly with typed
// errors — the documented unrecoverable case.
func TestChaosRecoveryAllCrashAborts(t *testing.T) {
	a, b := chaosWorkload(t)
	var crashes []chaos.Crash
	for rank := 0; rank < chaosNodes; rank++ {
		crashes = append(crashes, chaos.Crash{Rank: rank, At: 1e-12})
	}
	sys, err := New(Options{Nodes: chaosNodes, DenseColumns: b.Cols, Chaos: &FaultPlan{Crashes: crashes}, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Multiply(b); !errors.Is(err, cluster.ErrCrashed) {
		t.Errorf("all-rank crash: %v, want ErrCrashed", err)
	}
}

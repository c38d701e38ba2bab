package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twoface"
	"twoface/internal/cluster"
	"twoface/internal/obs"
	"twoface/internal/transport/tcp"
)

// sizing scales a run. The benchmark proper always uses fullSize, so that
// results compare across hosts and commits; bench_test.go shrinks it to a
// smoke test.
type sizing struct {
	banded, hub, serve float64 // generator scales of the three matrices
	setups             int     // set-ups per run; setup_s is their median
	warmOps            int     // warm-up lasts at least this many ops ...
	warmFor            time.Duration
	soloOps            int // solo multiplies behind serve.exec_over_solo and transport.tcp.over_sim
	refReps            int // repetitions of the plain-kernel baseline
}

var fullSize = sizing{banded: 4, hub: 1, serve: 0.1, setups: 3, warmOps: 10, warmFor: 2 * time.Second, soloOps: 20, refReps: 3}

// Worker counts are constants, not functions of the host, so that two hosts
// run the same program.
const (
	simWorkers, simAsyncWorkers = 2, 1
	tcpWorkers, tcpAsyncWorkers = 1, 1
	serveClients                = 2 // closed-loop HTTP clients; never more than nproc
	checkTol                    = 1e-9
)

// runCtx is what one run hands its workload: the seed everything is drawn
// from, the sizing, and — in a traced run only — the span recorder.
type runCtx struct {
	seed uint64
	size sizing
	rec  *recorder
}

func (c *runCtx) operand(rows, k, index int) *twoface.DenseMatrix {
	return twoface.RandomDense(rows, k, subSeed(c.seed, streamOperand+uint64(index)))
}

// setupInfo times one set-up: generating A, preprocessing it, and whatever
// the workload needs before its first op (ring dial, server start).
type setupInfo struct {
	total, gen, preprocess, dial time.Duration
}

// opSample is one op as the caller saw it, plus what the layers reported
// about it. dur is the timed interval; check is the verification that
// followed it, outside that interval.
type opSample struct {
	dur, check time.Duration
	ok         bool
	timed      bool // false: a verification-only request, outside latency and throughput
	cold       bool // first multiply by this operand since another was used
	class      int  // serve-mix request class

	run                time.Duration // Result.Wall: ranks running
	cacheHits, cacheOp int64         // row-cache hits, lookups

	// serve-mix: the server's own account of the request, and the client's.
	queueMs, execMs, totalMs float64
	httpMs, decodeMs         float64
	reqBytes                 int64
	shed, coalesced          bool
}

// facts is what the per-layer metrics need to know about a set-up instance.
type facts struct {
	a     *twoface.SparseMatrix
	b     *twoface.DenseMatrix // a representative operand, for the plain-kernel baseline
	k     int
	prep  twoface.PrepStats
	stats *transportStats // the decorator's counters; nil in an untraced run
	first *twoface.Result // first multiply on the fresh plan (for tcp-hub, on its simulator twin)

	obs *obsSwitch // the program's own instrumentation, where the workload measures its cost

	soloMs float64 // median solo multiply on the plan (serve-mix) or on the simulator twin (tcp-hub)
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// clients is the number of closed-loop callers.
	clients() int
	// prepare computes the reference products, checks the first multiply
	// by every operand against them, and records the first multiply of all.
	prepare() error
	// period is the length of the op sequence the exact counts are taken over.
	period() int
	// do runs and verifies op n of one client.
	do(client, n int) opSample
	facts() *facts
	close()
}

type workload struct {
	name, why string
	setup     func(c *runCtx) (instance, setupInfo, error)
}

func workloads() []workload {
	banded := simSpec{matrix: "queen", scale: func(s sizing) float64 { return s.banded }, k: 128, p: 4, operands: 1, reuse: 1}
	hub := simSpec{matrix: hubMatrix, scale: func(s sizing) float64 { return s.hub }, k: hubK, p: 4, operands: hubOperands, reuse: hubReuse, obs: true}
	return []workload{
		{"sim-banded", "banded matrix, K=128, 4 simulated ranks: all stripes collective, so row-panel compute in core and kernels is nearly all of the op", banded.setup},
		{"sim-hub", "hub matrix at 2 nnz/row, K=32, two operands each reused 3 times: stripe transfers, one-sided gets, row cache and output assembly dominate; kernels idle", hub.setup},
		{"tcp-hub", "the sim-hub matrix on 2 ranks over real 127.0.0.1 sockets: most of the op is inside Transport.Read, so only wire work moves it", setupTCP},
		{"serve-mix", "HTTP server with one resident plan, 2 closed-loop clients, 60% seed / 20% octet-stream / 20% inline-JSON requests: decode, admission and encode are a visible share", setupServe},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// wrapTransport puts the counting decorator around a transport in a traced
// run, and returns the transport unchanged (nil included) otherwise.
func wrapTransport(tr cluster.Transport, stats *transportStats) cluster.Transport {
	if stats == nil {
		return tr
	}
	return &countingTransport{Transport: tr, stats: stats}
}

// newStats returns the shared counters of a p-rank cluster in a traced run.
func (c *runCtx) newStats(p int) *transportStats {
	if c.rec == nil {
		return nil
	}
	return newTransportStats(p, c.rec)
}

// newSimPlan preprocesses a on p simulated ranks.
func (c *runCtx) newSimPlan(a *twoface.SparseMatrix, p, k, workers, asyncWorkers int, stats *transportStats, sr twoface.SpanRecorder) (*twoface.Plan, error) {
	opts := twoface.Options{Nodes: p, DenseColumns: k, Workers: workers, AsyncWorkers: asyncWorkers, SpanRecorder: sr}
	if stats != nil {
		mem, err := twoface.NewMemTransport(p)
		if err != nil {
			return nil, err
		}
		opts.Transport = wrapTransport(mem, stats)
	}
	sys, err := twoface.New(opts)
	if err != nil {
		return nil, err
	}
	return sys.Preprocess(a)
}

// equalRows compares rows [lo, hi) of two K-column matrices with the
// repository's mixed absolute/relative tolerance, |a-b| <= tol*max(1,|a|,|b|)
// (dense.Matrix.AlmostEqual). The rows are split over the CPUs: every op is
// checked, so a serial check would take a quarter of the measured phase.
func equalRows(got, want *twoface.DenseMatrix, lo, hi int) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	k := got.Cols
	parts := runtime.NumCPU()
	verdicts := make([]bool, parts)
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		from, to := lo+(hi-lo)*i/parts, lo+(hi-lo)*(i+1)/parts
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := twoface.DenseMatrix{Rows: to - from, Cols: k, Data: got.Data[from*k : to*k]}
			w := twoface.DenseMatrix{Rows: to - from, Cols: k, Data: want.Data[from*k : to*k]}
			verdicts[i] = g.AlmostEqual(&w, checkTol)
		}(i)
	}
	wg.Wait()
	for _, ok := range verdicts {
		if !ok {
			return false
		}
	}
	return true
}

// --- sim-banded, sim-hub: one caller, Plan.Multiply on the simulator ---

type simSpec struct {
	matrix          string
	scale           func(sizing) float64
	k, p            int
	operands, reuse int
	obs             bool // carries the obs.on_overhead_frac measurement
}

type simInstance struct {
	spec     simSpec
	ctx      *runCtx
	plan     *twoface.Plan
	f        facts
	operands []*twoface.DenseMatrix
	refs     []*twoface.DenseMatrix
}

func (s simSpec) setup(c *runCtx) (instance, setupInfo, error) {
	var info setupInfo
	start := time.Now()
	a := twoface.Generate(s.matrix, s.scale(c.size), subSeed(c.seed, streamMatrix))
	info.gen = time.Since(start)

	inst := &simInstance{spec: s, ctx: c}
	var sr twoface.SpanRecorder
	var sw *obsSwitch
	if s.obs && c.rec != nil {
		sw = &obsSwitch{tracer: obs.NewTracer(0)}
		sr = sw
	}
	stats := c.newStats(s.p)
	t := time.Now()
	plan, err := c.newSimPlan(a, s.p, s.k, simWorkers, simAsyncWorkers, stats, sr)
	if err != nil {
		return nil, info, err
	}
	info.preprocess = time.Since(t)
	info.total = time.Since(start)

	inst.plan = plan
	for i := 0; i < s.operands; i++ {
		inst.operands = append(inst.operands, c.operand(int(a.NumCols), s.k, i))
	}
	inst.f = facts{a: a, b: inst.operands[0], k: s.k, prep: plan.Stats(), stats: stats, obs: sw}
	return inst, info, nil
}

func (s *simInstance) clients() int  { return 1 }
func (s *simInstance) period() int   { return s.spec.operands * s.spec.reuse }
func (s *simInstance) facts() *facts { return &s.f }
func (s *simInstance) close()        {}

func (s *simInstance) prepare() error {
	csr := s.f.a.ToCSR()
	for i, b := range s.operands {
		ref, err := csr.Mul(b)
		if err != nil {
			return err
		}
		res, err := s.plan.Multiply(b)
		if err != nil {
			return err
		}
		if i == 0 {
			s.f.first = res
		}
		if !equalRows(res.C, ref, 0, ref.Rows) {
			return fmt.Errorf("operand %d: C does not match the reference kernel", i)
		}
		s.refs = append(s.refs, ref)
	}
	return nil
}

func (s *simInstance) do(_, n int) opSample {
	idx, cold := rotation(n, len(s.operands), s.spec.reuse)
	tr := beginTrace(s.f.stats)
	start := time.Now()
	res, err := s.plan.Multiply(s.operands[idx])
	end := time.Now()

	smp := opSample{dur: end.Sub(start), timed: true, cold: cold}
	if err == nil {
		smp.run = res.Wall
		smp.cacheHits, smp.cacheOp = res.RowCache.Hits, res.RowCache.Hits+res.RowCache.Misses
	}
	tr.multiply(start, end, smp.run)
	checked := time.Now()
	smp.ok = err == nil && equalRows(res.C, s.refs[idx], 0, res.C.Rows)
	smp.check = time.Since(checked)
	tr.check(checked, smp.check)
	return smp
}

// obsSwitch is the program's own instrumentation, switchable from outside:
// a cluster.SpanRecorder that forwards to an obs.Tracer only while on, and
// the metrics registry enabled for the same interval. obs.on_overhead_frac
// is the op time with it on over the op time with it off.
type obsSwitch struct {
	on     atomic.Bool
	tracer *obs.Tracer
}

func (o *obsSwitch) Span(rank int, cat cluster.Category, op string, start, end float64) {
	if o.on.Load() {
		o.tracer.Span(rank, cat, op, start, end)
	}
}

func (o *obsSwitch) Instant(rank int, op string, at float64) {
	if o.on.Load() {
		o.tracer.Instant(rank, op, at)
	}
}

func (o *obsSwitch) set(on bool) {
	o.tracer.Reset()
	obs.Default.SetEnabled(on)
	o.on.Store(on)
}

// --- tcp-hub: two ranks over real sockets, both in this process ---

const tcpRanks = 2

type tcpInstance struct {
	ctx      *runCtx
	trs      [tcpRanks]*tcp.Transport
	plans    [tcpRanks]*twoface.Plan
	f        facts
	operands []*twoface.DenseMatrix
	refs     []*twoface.DenseMatrix
}

// The hub input, shared by sim-hub and tcp-hub so that the two differ only
// in ranks and transport.
const (
	hubMatrix   = "mawi"
	hubOperands = 2
	hubReuse    = 3
	hubK        = 32
)

func setupTCP(c *runCtx) (instance, setupInfo, error) {
	var info setupInfo
	start := time.Now()
	a := twoface.Generate(hubMatrix, c.size.hub, subSeed(c.seed, streamMatrix))
	info.gen = time.Since(start)

	inst := &tcpInstance{ctx: c}
	dialStart := time.Now()
	var err error
	if inst.trs, err = newRing(c.seed); err != nil {
		return nil, info, err
	}
	info.dial = time.Since(dialStart)

	// Every rank preprocesses the whole matrix, as separate processes would.
	stats := c.newStats(tcpRanks)
	t := time.Now()
	err = eachRank(func(r int) error {
		sys, err := twoface.New(twoface.Options{
			Nodes: tcpRanks, DenseColumns: hubK, Workers: tcpWorkers, AsyncWorkers: tcpAsyncWorkers,
			Transport: wrapTransport(inst.trs[r], stats),
		})
		if err != nil {
			return err
		}
		inst.plans[r], err = sys.Preprocess(a)
		return err
	})
	if err != nil {
		inst.close()
		return nil, info, err
	}
	info.preprocess = time.Since(t)
	info.total = time.Since(start)

	for i := 0; i < hubOperands; i++ {
		inst.operands = append(inst.operands, c.operand(int(a.NumCols), hubK, i))
	}
	inst.f = facts{a: a, b: inst.operands[0], k: hubK, prep: inst.plans[0].Stats(), stats: stats}
	return inst, info, nil
}

// newRing builds the conformance suite's topology: every rank a transport
// of its own on an ephemeral 127.0.0.1 port, all in this process. It returns
// once the first barrier has completed, which dials every peer and finishes
// the HELLO handshakes.
func newRing(digest uint64) (trs [tcpRanks]*tcp.Transport, err error) {
	var listeners [tcpRanks]net.Listener
	defer func() {
		if err == nil {
			return
		}
		for r := range trs {
			if trs[r] != nil {
				trs[r].Close()
			} else if listeners[r] != nil {
				listeners[r].Close()
			}
		}
	}()
	addrs := make([]string, tcpRanks)
	for r := range listeners {
		if listeners[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return trs, err
		}
		addrs[r] = listeners[r].Addr().String()
	}
	for r := range trs {
		trs[r], err = tcp.New(tcp.Config{
			Rank: r, Addrs: addrs, Listener: listeners[r], Digest: digest,
			DialTimeout: 10 * time.Second, RequestTimeout: 30 * time.Second, BarrierTimeout: 30 * time.Second,
		})
		if err != nil {
			return trs, err
		}
	}
	if err = eachRank(func(r int) error { return trs[r].Barrier(r) }); err != nil {
		return trs, fmt.Errorf("first barrier: %w", err)
	}
	return trs, nil
}

// eachRank runs fn for every TCP rank at once and joins the errors.
func eachRank(fn func(rank int) error) error {
	var errs [tcpRanks]error
	var wg sync.WaitGroup
	for r := 1; r < tcpRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	errs[0] = fn(0)
	wg.Wait()
	return errors.Join(errs[:]...)
}

func (t *tcpInstance) clients() int  { return 1 }
func (t *tcpInstance) period() int   { return hubOperands * hubReuse }
func (t *tcpInstance) facts() *facts { return &t.f }

func (t *tcpInstance) close() {
	for _, tr := range t.trs {
		if tr != nil {
			tr.Close()
		}
	}
}

func (t *tcpInstance) prepare() error {
	// modeled_ms and transport.tcp.over_sim come from the simulator twin:
	// on sockets Result.ModeledSeconds is measured, not modeled.
	twin, err := t.ctx.newSimPlan(t.f.a, tcpRanks, hubK, tcpWorkers, tcpAsyncWorkers, nil, nil)
	if err != nil {
		return err
	}
	if t.f.first, err = twin.Multiply(t.operands[0]); err != nil {
		return err
	}
	csr := t.f.a.ToCSR()
	for i, b := range t.operands {
		ref, err := csr.Mul(b)
		if err != nil {
			return err
		}
		t.refs = append(t.refs, ref)
		if _, ok, err := t.multiply(i); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("operand %d: a rank's row block does not match the reference kernel", i)
		}
	}
	var solo []float64
	for n := 0; n < t.ctx.size.soloOps; n++ {
		idx, _ := rotation(n, hubOperands, hubReuse)
		start := time.Now()
		if _, err := twin.Multiply(t.operands[idx]); err != nil {
			return err
		}
		solo = append(solo, ms(time.Since(start)))
	}
	t.f.soloMs = median(solo)
	return nil
}

// multiply runs one op — every rank's Multiply, concurrently — and checks
// each rank's row block, the only part of C a rank computes.
func (t *tcpInstance) multiply(idx int) (smp opSample, ok bool, err error) {
	var results [tcpRanks]*twoface.Result
	tr := beginTrace(t.f.stats)
	start := time.Now()
	err = eachRank(func(r int) error {
		var err error
		results[r], err = t.plans[r].Multiply(t.operands[idx])
		return err
	})
	end := time.Now()
	smp = opSample{dur: end.Sub(start), timed: true}
	if err != nil {
		tr.multiply(start, end, 0)
		return smp, false, err
	}
	for _, res := range results {
		smp.run = max(smp.run, res.Wall)
		smp.cacheHits += res.RowCache.Hits
		smp.cacheOp += res.RowCache.Hits + res.RowCache.Misses
	}
	tr.multiply(start, end, smp.run)

	checked := time.Now()
	ok = true
	for r, res := range results {
		block := t.plans[r].RowBlocks()[r]
		ok = ok && res.Measured && equalRows(res.C, t.refs[idx], block[0], block[1])
	}
	smp.check = time.Since(checked)
	tr.check(checked, smp.check)
	return smp, ok, nil
}

func (t *tcpInstance) do(_, n int) opSample {
	idx, cold := rotation(n, hubOperands, hubReuse)
	smp, ok, _ := t.multiply(idx)
	smp.ok, smp.cold = ok, cold
	return smp
}

// opTrace records the chain spans of one multiply-shaped op. The zero value
// (untraced run, or a segment with tracing off) records nothing.
type opTrace struct {
	rec            *recorder
	stats          *transportStats
	op, mul, runID int64
}

func beginTrace(stats *transportStats) opTrace {
	if stats == nil || !stats.on.Load() {
		return opTrace{}
	}
	rec := stats.rec
	tr := opTrace{rec: rec, stats: stats, op: rec.id(), mul: rec.id(), runID: rec.id()}
	stats.beginOp(tr.op, tr.runID)
	return tr
}

// multiply records op → core.multiply → core.run. The program reports how
// long its ranks ran (Result.Wall) but not when; the first transport call
// of the multiply, which the decorator saw, marks the start.
func (tr opTrace) multiply(start, end time.Time, run time.Duration) {
	if tr.rec == nil {
		return
	}
	s, e := tr.rec.at(start), tr.rec.at(end)
	tr.rec.add(span{ID: tr.op, Op: tr.op, Rank: -1, Name: "op", Start: s, End: e})
	tr.rec.add(span{ID: tr.mul, Parent: tr.op, Op: tr.op, Rank: -1, Name: "core.multiply", Start: s, End: e})
	if run > 0 {
		runStart := s
		if first := time.Duration(tr.stats.firstExpose.Load()); first > s {
			runStart = first
		}
		if runStart+run > e { // the run ended before the call returned
			runStart = max(s, e-run)
		}
		tr.rec.add(span{ID: tr.runID, Parent: tr.mul, Op: tr.op, Rank: -1, Name: "core.run", Start: runStart, End: runStart + run})
	}
}

func (tr opTrace) check(start time.Time, d time.Duration) {
	if tr.rec != nil {
		tr.rec.detail("check", -1, tr.op, 0, start, start.Add(d))
	}
}

package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cluster is a p-node distributed machine. Create one with New (in-process
// virtual-time simulator) or NewWithTransport (any Transport backend), then
// execute a distributed program with Run; every node this process hosts runs
// the program concurrently in its own goroutine, communicating through the
// Rank handle. Under the simulator that is all p nodes; under a
// multi-process transport it is this process's single rank, with the peers
// running the same program in their own processes.
//
// A Cluster may be Run multiple times; windows and virtual clocks reset
// between runs only via Reset.
type Cluster struct {
	p    int
	net  NetModel
	tr   Transport
	wall bool // transport measures real time; modeled charges are ignored

	ranks []*Rank

	mu       sync.RWMutex  // guards injector and retry
	injector FaultInjector // nil = healthy machine
	retry    RetryPolicy

	log atomic.Pointer[slog.Logger]

	// Crash-recovery membership. recovery is set before Run (SetRecovery);
	// live and deaths are guarded by memMu and describe the current run.
	memMu    sync.Mutex
	recovery bool
	live     int
	deaths   []DeathRecord
}

// DeathRecord describes one rank's crash under recovery: when it died and
// how far its checkpoints had durably progressed. Units is the count of
// recovery units (async stripes/batches then row panels, in the executor's
// canonical order) whose output the last checkpoint made visible; survivors
// re-execute everything from Units onward.
type DeathRecord struct {
	Rank        int
	At          float64 // virtual time of the crash
	Units       int     // recovery units durably checkpointed
	Checkpoints int64   // checkpoint writes the rank completed before dying
}

// New returns a cluster of p nodes on the in-process virtual-time simulator
// with the given network model.
func New(p int, net NetModel) (*Cluster, error) {
	tr, err := NewMemTransport(p)
	if err != nil {
		return nil, err
	}
	return NewWithTransport(tr, net)
}

// NewWithTransport returns a cluster whose ranks communicate through the
// given transport backend. Rank handles exist for all P ranks (so ledger and
// counter accessors stay shape-stable), but Run executes the program only on
// the transport's local ranks.
func NewWithTransport(tr Transport, net NetModel) (*Cluster, error) {
	p := tr.P()
	if p < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", p)
	}
	c := &Cluster{
		p:     p,
		net:   net,
		tr:    tr,
		wall:  tr.WallClock(),
		retry: RetryPolicy{}.Normalize(),
	}
	c.ranks = make([]*Rank, p)
	for i := 0; i < p; i++ {
		c.ranks[i] = &Rank{ID: i, P: p, c: c, crashAt: math.Inf(1)}
	}
	return c, nil
}

// P returns the number of nodes.
func (c *Cluster) P() int { return c.p }

// Net returns the cluster's network model.
func (c *Cluster) Net() NetModel { return c.net }

// Transport returns the transfer backend the cluster runs over.
func (c *Cluster) Transport() Transport { return c.tr }

// WallClock reports whether rank ledgers measure real elapsed time instead
// of accumulating modeled virtual time (see Rank.Charge).
func (c *Cluster) WallClock() bool { return c.wall }

// Run executes fn on every local rank concurrently and waits for all of
// them. If any rank returns an error, the whole cluster aborts: the barrier
// is broken so ranks blocked in collectives fail fast, and every subsequent
// window lookup, transfer, or retry-loop iteration on any rank observes an
// ErrAborted-wrapping error, so a mid-run rank failure cannot deadlock the
// survivors. The joined per-rank errors are returned.
func (c *Cluster) Run(fn func(r *Rank) error) error {
	c.memMu.Lock()
	c.live = c.p
	c.deaths = nil
	c.memMu.Unlock()
	errs := make([]error, c.p)
	var wg sync.WaitGroup
	for _, i := range c.tr.LocalRanks() {
		wg.Add(1)
		go func(rank *Rank) {
			defer wg.Done()
			if err := fn(rank); err != nil {
				errs[rank.ID] = fmt.Errorf("rank %d: %w", rank.ID, err)
				c.abortWith(errs[rank.ID])
			}
		}(c.ranks[i])
	}
	wg.Wait()
	c.tr.Finish()
	return errors.Join(errs...)
}

// abortWith records the first failure and releases every current and
// future barrier waiter with an ErrAborted-wrapping error.
func (c *Cluster) abortWith(cause error) {
	if c.tr.Abort(cause) {
		if l := c.log.Load(); l != nil {
			l.Error("cluster aborted", "cause", cause.Error())
		}
	}
}

// abortedErr returns the cluster-wide abort error, or nil while healthy.
func (c *Cluster) abortedErr() error { return c.tr.AbortErr() }

// Breakdowns returns a copy of every rank's virtual-time ledger.
func (c *Cluster) Breakdowns() []Breakdown {
	out := make([]Breakdown, c.p)
	for i, r := range c.ranks {
		out[i] = r.Breakdown()
	}
	return out
}

// TotalTime returns the cluster's modeled makespan: the maximum node time.
// All algorithms in this repository end with an implicit synchronization
// (the SpMM result is consumed collectively), so the slowest node defines
// the operation's latency.
func (c *Cluster) TotalTime() float64 {
	var max float64
	for _, r := range c.ranks {
		if t := r.Breakdown().NodeTime(); t > max {
			max = t
		}
	}
	return max
}

// Reset clears all windows, staging slots, virtual clocks, transfer and
// resilience counters, and any abort state, preparing the cluster for an
// unrelated run. An attached fault injector survives: repeated runs on one
// plan stay under the same fault regime.
func (c *Cluster) Reset() {
	c.tr.Reset()
	c.memMu.Lock()
	c.live = c.p
	c.deaths = nil
	c.memMu.Unlock()
	for _, r := range c.ranks {
		r.resetClock()
	}
}

// SetRecovery enables (or disables) fail-recover mode for subsequent runs:
// a fault-plan crash becomes a membership transition that survivors recover
// from, instead of tripping the cluster-wide abort. Call it before Run.
func (c *Cluster) SetRecovery(on bool) {
	c.memMu.Lock()
	c.recovery = on
	c.memMu.Unlock()
}

// RecoveryEnabled reports whether fail-recover mode is on.
func (c *Cluster) RecoveryEnabled() bool {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	return c.recovery
}

// Deaths returns the crashes recorded so far in the current run, in rank
// order. Survivors read it after a barrier: every death strictly precedes
// the completion of the fence the dead rank left, so all survivors observe
// the same list.
func (c *Cluster) Deaths() []DeathRecord {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	out := make([]DeathRecord, len(c.deaths))
	copy(out, c.deaths)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// LiveRanks returns the sorted rank IDs still alive in the current run.
func (c *Cluster) LiveRanks() []int {
	dead := map[int]bool{}
	c.memMu.Lock()
	for _, d := range c.deaths {
		dead[d.Rank] = true
	}
	c.memMu.Unlock()
	out := make([]int, 0, c.p)
	for i := 0; i < c.p; i++ {
		if !dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// SpanRecorder observes virtual-time activity on the cluster's ranks. Span
// is called once per Charge with the interval [start, end) on that
// category's cumulative clock (intervals within one rank and category are
// non-overlapping and tile the category total exactly); Instant is called
// for zero-duration markers (barrier entry, epilogue flush), stamped at the
// rank's current modeled makespan. Implementations must be safe for
// concurrent use; obs.Tracer is the standard one. A nil recorder (the
// default) costs one nil check per charge and leaves modeled time
// bit-identical, since recording never feeds back into the simulation.
type SpanRecorder interface {
	Span(rank int, cat Category, op string, start, end float64)
	Instant(rank int, op string, at float64)
}

// SetSpanRecorder attaches (or, with nil, detaches) a span recorder on
// every rank. Call it before Run; charges made while it is attached are
// reported as spans.
func (c *Cluster) SetSpanRecorder(sr SpanRecorder) {
	for _, r := range c.ranks {
		r.mu.Lock()
		r.rec = sr
		r.mu.Unlock()
	}
}

// SetLogger attaches (or, with nil, detaches) a structured logger. Each
// rank logs through a child logger carrying its rank attr, so a chaos run's
// retry storm is attributable line by line. Like span recording, logging is
// pure observation: it never feeds back into modeled time, and the default
// (no logger) costs one atomic load on the resilience paths only — the
// charge hot path never looks at it.
func (c *Cluster) SetLogger(l *slog.Logger) {
	c.log.Store(l)
	for _, r := range c.ranks {
		var rl *slog.Logger
		if l != nil {
			rl = l.With("rank", r.ID)
		}
		r.log.Store(rl)
	}
}

// Rank is one node's handle into the cluster. All methods are safe for use
// by multiple goroutines of the same node (the paper's per-node OpenMP
// threads map to goroutines sharing one Rank).
type Rank struct {
	ID int // this node's rank, 0-based
	P  int // number of nodes
	c  *Cluster

	mu         sync.Mutex
	bd         Breakdown
	lastWall   time.Time // wall-clock mode: end of the last measured interval
	rec        SpanRecorder
	log        atomic.Pointer[slog.Logger] // rank-attributed child of the cluster logger
	fi         FaultInjector               // cached from the cluster; nil = healthy
	retry      RetryPolicy
	crashAt    float64 // virtual time of fault-plan crash; +Inf = never
	recovering bool    // charges redirect to the Recovery category
	counters   transferCounters
	resilience resilienceCounters
	trace      traceBuf
}

// logger returns this rank's attached logger, or nil when logging is off.
func (r *Rank) logger() *slog.Logger { return r.log.Load() }

// injection returns this rank's cached fault injector and retry policy.
func (r *Rank) injection() (FaultInjector, RetryPolicy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fi, r.retry
}

// Net returns the cluster's network model.
func (r *Rank) Net() NetModel { return r.c.net }

// Charge adds dt seconds of virtual time to the given category of this
// node's ledger. Negative charges are rejected. An attached span recorder
// sees the charge under the category's generic label; use ChargeOp to name
// the phase.
//
// On a wall-clock transport the modeled dt is ignored: each charge instead
// closes the real-time interval since the rank's previous charge and books
// the measured seconds to its category, so the ledger's categories tile the
// measured span of the run (the modeled categories are reported as
// "measured"). SyncOverlap is the exception — overlap is a modeled credit
// with no measurable duration of its own, so it books zero without
// consuming the interval.
func (r *Rank) Charge(cat Category, dt float64) {
	r.charge(cat, "", dt)
}

// ChargeOp is Charge with a phase label for span tracing: "multicast.recv",
// "get.indexed", "compute.sync.panel", ... The label has no effect on the
// ledger.
func (r *Rank) ChargeOp(cat Category, op string, dt float64) {
	r.charge(cat, op, dt)
}

// ChargeOpTimed is ChargeOp returning the applied charge: the seconds the
// ledger actually advanced, after any fault-plan straggler scaling. The
// pipelined executor mirrors these into its local arrival/cost bookkeeping
// so overlap accounting stays consistent with the ledger without reading
// the (concurrently advancing) category clocks back.
func (r *Rank) ChargeOpTimed(cat Category, op string, dt float64) float64 {
	return r.charge(cat, op, dt)
}

func (r *Rank) charge(cat Category, op string, dt float64) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("cluster: negative charge %v to %v", dt, cat))
	}
	r.mu.Lock()
	if r.recovering {
		cat = Recovery
	}
	if r.c.wall {
		// Measured ledger: replace the modeled dt with the real interval
		// since this rank's previous charge. Attribution is to the charge
		// that closes the interval, which is the category whose operation
		// just finished; with several goroutines charging one rank the
		// intervals still tile wall time exactly, but category attribution
		// is approximate under concurrency (see DESIGN.md section 14).
		now := time.Now()
		if cat == Overlap {
			dt = 0 // modeled credit; no measurable duration, keep the interval open
		} else {
			dt = 0
			if !r.lastWall.IsZero() {
				dt = now.Sub(r.lastWall).Seconds()
			}
			r.lastWall = now
		}
	} else if r.fi != nil {
		dt *= r.fi.ScaleCharge(r.ID, cat)
	}
	f := r.bd.field(cat)
	if f == nil {
		r.mu.Unlock()
		panic(fmt.Sprintf("cluster: unknown category %d", cat))
	}
	start := *f
	*f += dt
	// The span is recorded under the lock, so concurrent workers on one rank
	// reach the recorder in the order they reached the ledger and both sum
	// the same charges in the same order.
	if r.rec != nil {
		if op == "" {
			op = cat.String()
		}
		r.rec.Span(r.ID, cat, op, start, *f)
	}
	r.mu.Unlock()
	return dt
}

// Instant reports a zero-duration marker to the attached span recorder,
// stamped at this rank's current modeled makespan. A no-op without a
// recorder.
func (r *Rank) Instant(op string) {
	r.mu.Lock()
	rec := r.rec
	at := r.bd.NodeTime()
	r.mu.Unlock()
	if rec != nil {
		rec.Instant(r.ID, op, at)
	}
}

// Breakdown returns a copy of this node's current ledger.
func (r *Rank) Breakdown() Breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bd
}

func (r *Rank) resetClock() {
	r.mu.Lock()
	r.bd = Breakdown{}
	r.lastWall = time.Time{}
	r.recovering = false
	r.mu.Unlock()
	r.counters.reset()
	r.resilience.reset()
}

// RecoveryEnabled reports whether the cluster is in fail-recover mode.
func (r *Rank) RecoveryEnabled() bool { return r.c.RecoveryEnabled() }

// CrashTime returns this rank's fault-plan crash time (+Inf = never).
func (r *Rank) CrashTime() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashAt
}

// Deaths returns the crashes recorded so far in the current run.
func (r *Rank) Deaths() []DeathRecord { return r.c.Deaths() }

// BeginRecovery redirects this rank's subsequent charges into the Recovery
// category (survivor re-execution of a dead rank's work happens after the
// fence, serial with the rank's own halves). EndRecovery restores normal
// charging. Only the post-fence recovery phase, which is single-threaded
// per rank, may use this.
func (r *Rank) BeginRecovery() {
	r.mu.Lock()
	r.recovering = true
	r.mu.Unlock()
}

// EndRecovery restores normal category charging after BeginRecovery.
func (r *Rank) EndRecovery() {
	r.mu.Lock()
	r.recovering = false
	r.mu.Unlock()
}

func (r *Rank) isRecovering() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovering
}

// Die records this rank's fault-plan crash as a membership transition: the
// death is published, the rank leaves the barrier (completing any fence the
// survivors are waiting on), and its goroutine must return nil immediately
// after. It fails — returning an error that the caller should propagate to
// trip the PR 3 abort path — when recovery is disabled or when this is the
// last live rank (nobody is left to recover).
func (r *Rank) Die(at float64, units int, checkpoints int64) error {
	c := r.c
	c.memMu.Lock()
	if !c.recovery {
		c.memMu.Unlock()
		return fmt.Errorf("cluster: rank %d: %w (crash time %.4g, recovery disabled)", r.ID, ErrCrashed, at)
	}
	if c.live <= 1 {
		c.memMu.Unlock()
		return fmt.Errorf("cluster: rank %d: %w (crash time %.4g, no live rank left to recover)", r.ID, ErrCrashed, at)
	}
	c.live--
	c.deaths = append(c.deaths, DeathRecord{Rank: r.ID, At: at, Units: units, Checkpoints: checkpoints})
	c.memMu.Unlock()
	r.resilience.addCrash()
	if l := r.logger(); l != nil {
		l.Warn("rank crashed; survivors will recover",
			"event", "crash.recoverable", "at", at,
			"checkpointed_units", units, "checkpoints", checkpoints)
	}
	c.tr.Leave(r.ID)
	return nil
}

// Barrier blocks until every rank has reached it. It returns an error if
// the cluster was aborted by another rank's failure, or if this rank's
// fault-plan crash time has passed (the crash then aborts the cluster
// through Run). With a span recorder attached, entry is reported as a
// "barrier" instant.
func (r *Rank) Barrier() error {
	if err := r.failed(); err != nil {
		return err
	}
	r.Instant("barrier")
	return r.c.tr.Barrier(r.ID)
}

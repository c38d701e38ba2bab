package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Transport is the transfer-level seam between the cluster's rank semantics
// (virtual-time charging, fault injection, retry/degrade policies, transfer
// counters, tracing) and the machinery that actually moves bytes between
// ranks. Everything above this interface is byte-movement-agnostic: the
// in-process simulator (NewMemTransport) services all p ranks from shared
// memory under the virtual clock, while a wall-clock backend (e.g.
// internal/transport/tcp) services exactly one rank per OS process and
// reaches peers over sockets.
//
// Semantics every implementation must provide:
//
//   - Expose/Read are the one-sided window primitives. Read packs the
//     requested regions contiguously into dst and is all-or-nothing: on any
//     error — bad region, missing window, mid-transfer connection loss — the
//     caller must not be able to observe bytes from the failed attempt in
//     dst. (The retry/degrade machinery above re-issues failed gets; a
//     half-filled buffer surviving into the fallback path would corrupt C.)
//   - Deposit/Collect are the staging slots of the deposit-barrier-collect
//     collectives. Collect may return a slice aliasing the depositor's data
//     (the in-process case); callers copy before use.
//   - Barrier blocks until every live rank of the cluster has entered, and
//     fails (rather than deadlocks) once the cluster is aborted.
//   - Abort records the first cluster-wide failure and releases every
//     current and future Barrier waiter; AbortErr exposes the recorded
//     error, which unwraps to ErrAborted, on every rank.
//   - Leave removes one rank from subsequent barriers (crash-recovery
//     membership). Transports that do not support recovery may panic; the
//     facade refuses to combine recovery with such transports.
//
// WallClock distinguishes the two ledger regimes: false means charges are
// modeled virtual seconds (the simulator), true means the rank ledger
// measures real elapsed time between charges and the modeled dt arguments
// are ignored (see Rank.charge).
type Transport interface {
	// P returns the cluster size the transport serves.
	P() int
	// LocalRanks returns the ranks this process executes, ascending. The
	// simulator returns all of [0, P); a multi-process backend returns one.
	LocalRanks() []int
	// WallClock reports whether rank ledgers measure real time (true) or
	// accumulate modeled virtual time (false).
	WallClock() bool

	// Expose registers (or replaces) rank's window under the given name.
	// The slice is not copied; callers must not mutate it while exposed.
	Expose(rank int, name string, data []float64)
	// Read packs the given regions of target's window contiguously into
	// dst, returning the element count. All-or-nothing: on error, no bytes
	// of the failed attempt are observable in dst.
	Read(rank, target int, name string, regions []Region, dst []float64) (int64, error)

	// Deposit places data in rank's staging slot.
	Deposit(rank int, data []float64)
	// Collect returns the payload rank `from` last deposited (possibly nil).
	Collect(rank, from int) ([]float64, error)

	// Barrier blocks rank until all live ranks have entered, or fails with
	// the abort error once the cluster is aborted.
	Barrier(rank int) error
	// Leave permanently removes rank from subsequent barriers.
	Leave(rank int)

	// Abort records the first cluster-wide failure, releasing barrier
	// waiters everywhere. It reports whether this call recorded the cause
	// (false: an earlier abort won).
	Abort(cause error) bool
	// AbortErr returns the recorded abort error (unwrapping to ErrAborted),
	// or nil while healthy.
	AbortErr() error

	// Reset clears windows, staging slots, and (for resettable transports)
	// abort state, preparing for an unrelated run.
	Reset()
	// Finish quiesces the transport between Runs: the simulator resets its
	// barrier and clears the abort flag; single-shot wall-clock transports
	// may treat it as a no-op.
	Finish()
	// Close releases external resources (sockets). The simulator is a no-op.
	Close() error
}

// CheckRegions validates a one-sided region list against a window of winLen
// elements and a destination of dstLen elements, returning the total element
// count. It is the shared validation step that makes Read all-or-nothing:
// every transport backend validates the complete request before moving any
// bytes. The rank/target/name arguments only shape the error messages.
func CheckRegions(rank, target int, name string, regions []Region, winLen, dstLen int) (int64, error) {
	var n int64
	for _, reg := range regions {
		if reg.Off < 0 || reg.Elems < 0 || reg.Off+reg.Elems > int64(winLen) {
			return 0, fmt.Errorf("cluster: rank %d: region [%d,+%d) outside window %q of rank %d (len %d): %w",
				rank, reg.Off, reg.Elems, name, target, winLen, ErrRegionOOB)
		}
		n += reg.Elems
	}
	if int64(dstLen) < n {
		return 0, fmt.Errorf("cluster: rank %d: destination too small for indexed get (%d < %d): %w",
			rank, dstLen, n, ErrDstTooSmall)
	}
	return n, nil
}

// memTransport is the in-process virtual-time backend: all p ranks live in
// one address space, windows and staging slots are shared maps, and the
// barrier is the cyclic in-memory one. It is the deterministic test
// substrate — nothing here consults a real clock.
type memTransport struct {
	p      int
	locals []int

	mu      sync.RWMutex
	windows []map[string][]float64 // per-rank named one-sided windows
	staging [][]float64            // per-rank deposit slots for exchanges

	bar   *barrier
	abort atomic.Pointer[abortError] // first failure; nil while healthy
}

// NewMemTransport returns the in-process simulator transport for p ranks.
// cluster.New wraps it; it is exported so the conformance suite can drive
// the same backend the simulator uses through the Transport interface.
func NewMemTransport(p int) (Transport, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", p)
	}
	t := &memTransport{
		p:       p,
		locals:  make([]int, p),
		windows: make([]map[string][]float64, p),
		staging: make([][]float64, p),
		bar:     newBarrier(p),
	}
	for i := 0; i < p; i++ {
		t.locals[i] = i
		t.windows[i] = map[string][]float64{}
	}
	return t, nil
}

func (t *memTransport) P() int            { return t.p }
func (t *memTransport) LocalRanks() []int { return t.locals }
func (t *memTransport) WallClock() bool   { return false }

func (t *memTransport) Expose(rank int, name string, data []float64) {
	t.mu.Lock()
	t.windows[rank][name] = data
	t.mu.Unlock()
}

// window returns target's window name, or ErrWindowMissing.
func (t *memTransport) window(rank, target int, name string) ([]float64, error) {
	if target < 0 || target >= t.p {
		return nil, fmt.Errorf("cluster: rank %d: window target %d out of range [0,%d): %w", rank, target, t.p, ErrWindowMissing)
	}
	t.mu.RLock()
	w, ok := t.windows[target][name]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: rank %d: no window %q exposed by rank %d: %w", rank, name, target, ErrWindowMissing)
	}
	return w, nil
}

func (t *memTransport) Read(rank, target int, name string, regions []Region, dst []float64) (int64, error) {
	w, err := t.window(rank, target, name)
	if err != nil {
		return 0, err
	}
	// Validate the complete request before copying anything: a rejected get
	// must leave dst untouched so the retry/degrade path above can reuse it.
	if _, err := CheckRegions(rank, target, name, regions, len(w), len(dst)); err != nil {
		return 0, err
	}
	var n int64
	for _, reg := range regions {
		copy(dst[n:n+reg.Elems], w[reg.Off:reg.Off+reg.Elems])
		n += reg.Elems
	}
	return n, nil
}

// view returns one region of target's window in place, after Read's checks:
// every rank shares this address space, as the ranks of an MPI-3
// shared-memory window do. The view is read-only, its capacity clipped to the
// region, and valid for the window's exposure epoch.
func (t *memTransport) view(rank, target int, name string, reg Region) ([]float64, error) {
	w, err := t.window(rank, target, name)
	if err != nil {
		return nil, err
	}
	if _, err := CheckRegions(rank, target, name, []Region{reg}, len(w), int(reg.Elems)); err != nil {
		return nil, err
	}
	end := reg.Off + reg.Elems
	return w[reg.Off:end:end], nil
}

func (t *memTransport) Deposit(rank int, data []float64) {
	t.mu.Lock()
	t.staging[rank] = data
	t.mu.Unlock()
}

func (t *memTransport) Collect(rank, from int) ([]float64, error) {
	if from < 0 || from >= t.p {
		return nil, fmt.Errorf("cluster: rank %d: collect from %d out of range [0,%d)", rank, from, t.p)
	}
	t.mu.RLock()
	d := t.staging[from]
	t.mu.RUnlock()
	return d, nil
}

func (t *memTransport) Barrier(rank int) error { return t.bar.wait() }
func (t *memTransport) Leave(rank int)         { t.bar.leave() }

func (t *memTransport) Abort(cause error) bool {
	err := &abortError{cause: cause}
	if t.abort.CompareAndSwap(nil, err) {
		t.bar.breakWith(err)
		return true
	}
	return false
}

func (t *memTransport) AbortErr() error {
	if err := t.abort.Load(); err != nil {
		return err
	}
	return nil
}

func (t *memTransport) Reset() {
	t.mu.Lock()
	for i := range t.windows {
		t.windows[i] = map[string][]float64{}
		t.staging[i] = nil
	}
	t.mu.Unlock()
	t.abort.Store(nil)
}

func (t *memTransport) Finish() {
	t.bar.reset()
	t.abort.Store(nil)
}

func (t *memTransport) Close() error { return nil }

package cluster

import "fmt"

// One-sided communication: the analog of MPI windows and MPI_Rget with an
// MPI_Type_indexed datatype (paper section 5.2.3). A rank exposes a named
// float64 buffer; any rank may then read arbitrary region lists from it
// without the target's participation. Windows are treated as immutable for
// the duration of an exposure epoch, matching the algorithms here, which
// never mutate the dense input B during an SpMM.

// Region selects a contiguous run of a window: Elems float64 values starting
// at element Off.
type Region struct {
	Off   int64
	Elems int64
}

// Expose registers (or replaces) this rank's window under the given name.
// The slice is not copied: the caller must not mutate it until the window is
// dropped. Call Barrier afterwards before peers access it.
func (r *Rank) Expose(name string, data []float64) {
	r.c.tr.Expose(r.ID, name, data)
}

// GetIndexed performs a one-sided read of the given regions from a peer's
// window, packing them contiguously into dst (which must have room for the
// sum of region lengths). It returns the number of elements read. The call
// only moves data; charge the cost with Net().OneSidedCost and Charge.
//
// Under an attached fault injector the get becomes resilient: each injected
// transient failure is retried with exponential backoff charged to this
// rank's AsyncComm clock ("get.retry.backoff" spans), up to the policy's
// attempt budget. When the budget runs out the get fails with an
// ErrRetryExhausted-wrapping error; asynchronous-path callers then degrade
// to SyncFallbackPull, which moves the same elements reliably.
func (r *Rank) GetIndexed(target int, name string, regions []Region, dst []float64) (int64, error) {
	fi, pol := r.injection()
	if fi == nil {
		return r.getIndexed(target, name, regions, dst, true)
	}
	var firstOff int64
	if len(regions) > 0 {
		firstOff = regions[0].Off
	}
	elems := regionsTotal(regions)
	for attempt := 1; ; attempt++ {
		if err := r.failed(); err != nil {
			return 0, err
		}
		out := fi.GetAttempt(r.ID, target, firstOff, elems, attempt)
		if out.Delay > 0 {
			r.ChargeOp(AsyncComm, "get.fault.delay", out.Delay)
			r.resilience.addDelay(out.Delay)
		}
		if !out.Fail {
			return r.getIndexed(target, name, regions, dst, true)
		}
		if attempt >= pol.MaxAttempts {
			r.resilience.addExhausted()
			if l := r.logger(); l != nil {
				l.Warn("one-sided get retry budget exhausted",
					"event", "get.exhausted", "target", target, "attempts", attempt, "elems", elems)
			}
			return 0, fmt.Errorf("cluster: rank %d: one-sided get from rank %d failed %d attempts: %w",
				r.ID, target, attempt, ErrRetryExhausted)
		}
		backoff := pol.Backoff(attempt)
		r.ChargeOp(AsyncComm, "get.retry.backoff", backoff)
		r.resilience.addGetRetry(backoff)
		if l := r.logger(); l != nil {
			l.Debug("one-sided get retry",
				"event", "get.retry", "target", target, "attempt", attempt, "backoff_s", backoff, "elems", elems)
		}
		r.trace.record(Event{Rank: r.ID, Op: TraceRetry, Peer: target, Elems: elems, Msgs: int64(len(regions))})
	}
}

func (r *Rank) getIndexed(target int, name string, regions []Region, dst []float64, record bool) (int64, error) {
	// Observe the cluster-wide abort flag before touching the transport, so
	// a rank looping over window accesses after a peer failure stops
	// promptly instead of grinding on.
	if err := r.c.abortedErr(); err != nil {
		return 0, err
	}
	// The transport's Read is all-or-nothing: a failed get (bad region,
	// missing window, lost connection mid-transfer) leaves dst untouched,
	// so the retry/degrade machinery above can reuse the buffer without a
	// consumer ever observing bytes from the failed attempt.
	n, err := r.c.tr.Read(r.ID, target, name, regions, dst)
	if err != nil {
		return 0, err
	}
	r.counters.addOneSided(n, int64(len(regions)))
	if record {
		// Count the aggregated request itself only for true one-sided gets:
		// degraded and recovery re-fetches (record=false) subtract the
		// provisional region/byte counts and reclassify them as collective,
		// so they must not bump the request counter either.
		r.counters.addGet()
		r.trace.record(Event{Rank: r.ID, Op: TraceGet, Peer: target, Elems: n, Msgs: int64(len(regions))})
		// Target-side contention (optional machine behaviour): the passive
		// target's NIC/memory bandwidth is consumed by incoming gets. Only
		// true one-sided traffic pays it; re-fetches (record=false) model
		// root-driven collectives whose cost the root already carries.
		// Recovery re-execution skips it too: post-fence charging must stay
		// single-rank, or the charge's category on the target would depend
		// on whether the target was still inside its own recovery phase.
		// Wall-clock transports skip it entirely: the target rank is a
		// remote process whose ledger measures its own real time.
		if f := r.c.net.TargetContention; f > 0 && target != r.ID && !r.c.wall && !r.isRecovering() {
			r.c.ranks[target].ChargeOp(AsyncComm, "get.target_contention", f*r.c.net.OneSidedCost(len(regions), n))
		}
	}
	return n, nil
}

// Get performs a one-sided read of a single contiguous region — the
// MPI_Get whole-block pattern of the Async Coarse-Grained baseline.
func (r *Rank) Get(target int, name string, reg Region, dst []float64) (int64, error) {
	return r.GetIndexed(target, name, []Region{reg}, dst)
}

// MulticastPull receives elems elements of root's window from off on — the
// data plane of a collective multicast in which this rank is a destination.
// Pull semantics are equivalent to the paper's root-initiated MPI_Ibcast here
// because windows are immutable during the epoch and reception is blocking
// anyway (paper section 5.2.1). It returns the buffer holding the stripe. On
// the simulator's own transport that is a read-only view of the root's
// window, valid until the epoch's closing barrier; through any other
// transport — TCP, or a decorator, which must see every byte its backend
// moves — it is a copy Read into dst(elems), which must have room for elems.
// It also returns the applied fault seconds the pull charged to this rank's
// SyncComm clock (leg delays and retry backoff, post straggler scaling; 0 on
// a healthy machine), which the pipelined executor folds into the stripe's
// completion time on its local sync-comm clock, so delayed legs push only
// the panels that need the afflicted stripe.
//
// Under an attached fault injector a leg of the multicast tree can
// straggle (extra SyncComm charged as "multicast.leg.delay") or fail, in
// which case the leg is re-pulled after a backoff charged as
// "multicast.retry.backoff". A leg whose failures outlast the retry budget
// is fatal — the collective path is this machine's reliable substrate, so
// a plan that breaks it permanently is not survivable.
func (r *Rank) MulticastPull(root int, name string, off, elems int64, dst func(n int64) []float64) ([]float64, float64, error) {
	var faultSeconds float64
	if fi, pol := r.injection(); fi != nil {
		for attempt := 1; ; attempt++ {
			if err := r.failed(); err != nil {
				return nil, faultSeconds, err
			}
			out := fi.LegAttempt(r.ID, root, off, elems, r.Breakdown().SyncComm, attempt)
			if out.Delay > 0 {
				faultSeconds += r.ChargeOpTimed(SyncComm, "multicast.leg.delay", out.Delay)
				r.resilience.addDelay(out.Delay)
			}
			if !out.Fail {
				break
			}
			if attempt >= pol.MaxAttempts {
				if l := r.logger(); l != nil {
					l.Error("multicast leg retry budget exhausted",
						"event", "leg.exhausted", "root", root, "attempts", attempt, "elems", elems)
				}
				return nil, faultSeconds, fmt.Errorf("cluster: rank %d: multicast leg from root %d failed %d attempts: %w",
					r.ID, root, attempt, ErrRetryExhausted)
			}
			backoff := pol.Backoff(attempt)
			faultSeconds += r.ChargeOpTimed(SyncComm, "multicast.retry.backoff", backoff)
			r.resilience.addLegRetry(backoff)
			if l := r.logger(); l != nil {
				l.Debug("multicast leg retry",
					"event", "leg.retry", "root", root, "attempt", attempt, "backoff_s", backoff, "elems", elems)
			}
			r.trace.record(Event{Rank: r.ID, Op: TraceRetry, Peer: root, Elems: elems, Msgs: 1})
		}
	}
	if err := r.c.abortedErr(); err != nil {
		return nil, faultSeconds, err
	}
	reg := Region{Off: off, Elems: elems}
	var buf []float64
	var err error
	if mt, ok := r.c.tr.(*memTransport); ok {
		buf, err = mt.view(r.ID, root, name, reg)
	} else {
		buf = dst(elems)
		_, err = r.c.tr.Read(r.ID, root, name, []Region{reg}, buf)
	}
	if err != nil {
		return nil, faultSeconds, err
	}
	buf = buf[:elems:elems]
	r.counters.addCollective(elems, 1)
	r.trace.record(Event{Rank: r.ID, Op: TraceMulticast, Peer: root, Elems: elems, Msgs: 1})
	return buf, faultSeconds, nil
}

// SyncFallbackPull re-fetches the given regions through the synchronous
// path after the one-sided path exhausted its retry budget (graceful
// degradation, so the SpMM still completes bit-exactly). It moves exactly
// the elements GetIndexed would have and packs them identically into dst,
// but the traffic is counted as collective and no one-sided faults apply:
// this models the root re-sending the rows over the reliable collective
// substrate. The call only moves data; the caller charges the collective
// cost (typically NetModel.MulticastCost with one destination) to
// SyncComm, which is what attributes the degradation in the Breakdown
// ledger.
func (r *Rank) SyncFallbackPull(target int, name string, regions []Region, dst []float64) (int64, error) {
	if err := r.failed(); err != nil {
		return 0, err
	}
	n, err := r.getIndexed(target, name, regions, dst, false)
	if err != nil {
		return n, err
	}
	// Reclassify as collective traffic, like a multicast pull.
	r.counters.addOneSided(-n, -int64(len(regions)))
	r.counters.addCollective(n, 1)
	r.resilience.addDegradation(n)
	if l := r.logger(); l != nil {
		l.Warn("degraded to synchronous fallback pull",
			"event", "degrade", "target", target, "elems", n, "regions", len(regions))
	}
	r.trace.record(Event{Rank: r.ID, Op: TraceDegrade, Peer: target, Elems: n, Msgs: 1})
	return n, nil
}

// RecoverPull re-fetches a dead rank's input regions over the reliable
// collective substrate so a survivor can re-execute its lost work. It packs
// elements exactly like GetIndexed, counts the traffic as collective, and
// attributes the elements to ResilienceStats.RefetchedElems (not
// Degradations — nothing degraded; this is the recovery protocol working as
// designed). No one-sided faults apply. The caller charges the collective
// cost to the Recovery category (normally via BeginRecovery redirection).
func (r *Rank) RecoverPull(target int, name string, regions []Region, dst []float64) (int64, error) {
	if err := r.failed(); err != nil {
		return 0, err
	}
	n, err := r.getIndexed(target, name, regions, dst, false)
	if err != nil {
		return n, err
	}
	// Reclassify as collective traffic, like a multicast pull.
	r.counters.addOneSided(-n, -int64(len(regions)))
	r.counters.addCollective(n, 1)
	r.resilience.addRefetched(n)
	if l := r.logger(); l != nil {
		l.Info("recovery re-fetch of dead rank inputs",
			"event", "recover.refetch", "target", target, "elems", n, "regions", len(regions))
	}
	r.trace.record(Event{Rank: r.ID, Op: TraceRecover, Peer: target, Elems: n, Msgs: 1})
	return n, nil
}

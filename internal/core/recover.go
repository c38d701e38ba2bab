package core

import (
	"errors"
	"fmt"
	"sync"

	"twoface/internal/cluster"
	"twoface/internal/dense"
)

// Fail-recover execution (DESIGN.md section 12). With cluster recovery
// enabled, a fault-plan crash no longer aborts the run: the doomed rank
// executes a serialized checkpointing variant of Algorithm 1 and dies at its
// crash time as a membership transition, and after the epilogue fence the
// survivors redistribute its unfinished work, re-fetch the inputs it held,
// and re-execute from its last checkpoint. C comes out equivalent to the
// fault-free run, and all recovery overhead is attributed to the Checkpoint
// and Recovery ledger categories.
//
// The recovery unit numbering is canonical and shared by the doomed rank's
// checkpoints and the survivors' redistribution: units [0, nAsync) are the
// async batches of buildAsyncSchedule, and units [nAsync, nAsync+nPanels) are
// the sync row panels in plain index order. A DeathRecord's Units field is a
// cut in this numbering: everything below it was made durable by the last
// checkpoint, everything at or above it is re-executed by the survivors,
// striped round-robin over the live ranks in rank order.

// defaultCheckpointCadence sets the automatic checkpoint interval to this
// many checkpoint write costs, bounding checkpoint overhead to roughly
// 1/defaultCheckpointCadence (~2%) of runtime at any machine scale.
const defaultCheckpointCadence = 50

// accumSink receives a work unit's output-row contributions. The live
// executor passes C itself (liveOutput); the doomed and recovery paths
// interpose a stagedSink so a unit's output becomes visible only at a
// checkpoint or in global unit order.
type accumSink interface {
	AddRange(off int, vals []float64)
	// plain returns C's storage when a row's sole writer may sum into it
	// without atomics, and nil when every contribution must go through
	// AddRange.
	plain() []float64
}

// stagedSink buffers AddRange calls for deferred, ordered replay into the
// real output. Values are copied at staging time because callers reuse their
// accumulation scratch across rows and units.
type stagedSink struct {
	offs []int
	lens []int
	buf  []float64
}

func (s *stagedSink) AddRange(off int, vals []float64) {
	s.offs = append(s.offs, off)
	s.lens = append(s.lens, len(vals))
	s.buf = append(s.buf, vals...)
}

// plain is nil: staged output must not reach C before its flush.
func (s *stagedSink) plain() []float64 { return nil }

// flush replays the staged ranges into out in staging order and resets.
func (s *stagedSink) flush(out *liveOutput) {
	p := 0
	for i, off := range s.offs {
		out.AddRange(off, s.buf[p:p+s.lens[i]])
		p += s.lens[i]
	}
	s.reset()
}

// reset discards everything staged since the last flush — the doomed rank's
// work past its last checkpoint, lost with the crash.
func (s *stagedSink) reset() {
	s.offs, s.lens, s.buf = s.offs[:0], s.lens[:0], s.buf[:0]
}

// checkpointInterval resolves the effective checkpoint cadence for one rank:
// zero (checkpointing off) unless the cluster is in fail-recover mode, the
// explicit option when set, and otherwise the self-scaling default cadence.
func checkpointInterval(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) float64 {
	if !r.RecoveryEnabled() {
		return 0
	}
	if opts.CheckpointInterval > 0 {
		return opts.CheckpointInterval
	}
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	return defaultCheckpointCadence * r.Net().CheckpointCost(elems)
}

// chargeHealthyCheckpoints accounts a surviving rank's cadenced snapshots as
// one epilogue lump: floor(NodeTime/interval) writes at the modeled
// checkpoint cost. Nothing ever restores from a survivor's checkpoints, so
// only their time matters, not their cut points.
func chargeHealthyCheckpoints(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) {
	iv := checkpointInterval(r, np, k, opts)
	if iv <= 0 {
		return
	}
	n := int64(r.Breakdown().NodeTime() / iv)
	if n <= 0 {
		return
	}
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	applied := r.ChargeOpTimed(cluster.Checkpoint, "checkpoint.write", float64(n)*r.Net().CheckpointCost(elems))
	r.CountCheckpoints(n, applied)
}

// checkpointer drives the doomed rank's cadenced snapshots: at each unit
// boundary past nextAt it charges one checkpoint write, makes the staged
// output durable, and records the cut. The cadence is anchored to the clock
// after each write (write time included), so a straggler-scaled rank
// checkpoints by its own slowed clock, like a real wall-clock timer would.
type checkpointer struct {
	interval float64
	cost     float64
	nextAt   float64
	cut      int   // units made durable by the last flush
	count    int64 // completed checkpoint writes
}

func newCheckpointer(r *cluster.Rank, np *NodePart, k int, opts ExecOptions) *checkpointer {
	iv := checkpointInterval(r, np, k, opts)
	elems := int64(np.RowHi-np.RowLo) * int64(k)
	return &checkpointer{interval: iv, cost: r.Net().CheckpointCost(elems), nextAt: iv}
}

func (ck *checkpointer) maybe(r *cluster.Rank, sink *stagedSink, out *liveOutput, unitsDone int) {
	if ck.interval <= 0 || r.Breakdown().NodeTime() < ck.nextAt {
		return
	}
	applied := r.ChargeOpTimed(cluster.Checkpoint, "checkpoint.write", ck.cost)
	r.CountCheckpoints(1, applied)
	sink.flush(out)
	ck.cut = unitsDone
	ck.count++
	ck.nextAt = r.Breakdown().NodeTime() + ck.interval
}

// unitRunner executes one node part's recovery units in the canonical
// numbering, for the doomed rank's serial loop and the survivors' re-execution
// alike. Scratch is fresh and unpooled and there is no row cache: the charge
// sequence — which fixes where a crash lands and what a replay reproduces —
// must not depend on earlier runs' state.
type unitRunner struct {
	prep    *Prep
	r       *cluster.Rank
	np      *NodePart
	kn      unitKernel
	opts    ExecOptions
	batches []asyncBatch // units [0, len(batches)); a pure function of the plan
	src     rowSources   // dense rows for the panel units
	aws     asyncScratch
	pws     panelScratch
}

func newUnitRunner(prep *Prep, r *cluster.Rank, np *NodePart, kn unitKernel, opts ExecOptions) *unitRunner {
	return &unitRunner{prep: prep, r: r, np: np, kn: kn, opts: opts,
		batches: buildAsyncSchedule(prep.Layout, np, prep.Params.K, prep.Params.MaxBatchBytes, nil)}
}

func (ur *unitRunner) units() int { return len(ur.batches) + ur.np.Sync.NumPanels() }

// run executes unit u into sink.
func (ur *unitRunner) run(u int, sink accumSink) error {
	smp := ur.opts.sampling()
	if u < len(ur.batches) {
		return processAsyncBatch(ur.prep, ur.r, ur.np, sink, ur.kn, &ur.aws, ur.batches[u], nil, ur.opts.SkipCompute, smp)
	}
	_, err := processSyncRowPanel(ur.prep, ur.r, ur.np, sink, ur.kn, ur.src, &ur.pws, u-len(ur.batches), ur.opts.SkipCompute, smp)
	return err
}

// execNodeDoomed is Algorithm 1 for a rank whose fault plan crashes it and
// whose cluster is in fail-recover mode. It runs single-threaded so the
// clock at every unit boundary — and therefore the crash cut — is a pure
// function of the plan, and stages all output through a stagedSink so only
// checkpointed units are ever visible in C. The crash itself is a clean
// membership transition (Rank.Die): the rank publishes how far its
// checkpoints got, leaves the barrier so the survivors' fence completes, and
// returns nil. Die fails (propagating to the PR 3 abort path) only when no
// live rank would remain to recover.
func execNodeDoomed(prep *Prep, b *dense.Matrix, r *cluster.Rank, out *liveOutput, kn unitKernel, opts ExecOptions, rec *recoveryCoordinator) error {
	np := &prep.Nodes[r.ID]
	k := prep.Params.K
	if err := beginNode(prep, b, r, np); err != nil {
		return err
	}

	ck := newCheckpointer(r, np, k, opts)
	sink := &stagedSink{}
	atCrash := func() error {
		if r.Breakdown().NodeTime() >= r.CrashTime() {
			return cluster.ErrCrashed
		}
		return nil
	}
	// fail ends the rank on err. Its own crash — the boundary check above, or
	// the crash tripping inside a pull or get — discards the work staged since
	// the last checkpoint and dies; a cluster-wide abort (another rank's
	// failure) must propagate as an error instead.
	fail := func(err error) error {
		if !errors.Is(err, cluster.ErrCrashed) || errors.Is(err, cluster.ErrAborted) {
			return err
		}
		sink.reset()
		return r.Die(r.Breakdown().NodeTime(), ck.cut, ck.count)
	}
	// boundary closes a unit: tick the checkpoint cadence, then check the
	// crash clock.
	boundary := func(unitsDone int) error {
		ck.maybe(r, sink, out, unitsDone)
		return atCrash()
	}

	// Dense-stripe reception, serialized: every panel runs after the last
	// stripe, so the pipeline's gates have no waiters and no overlap credit is
	// taken (it would depend on goroutine timing, and a doomed rank needs a
	// replayable clock more than overlap it won't live to enjoy). A cadence
	// tick before any unit has run writes an (empty, cut 0) checkpoint —
	// keeping the doomed rank's checkpoint count consistent with the healthy
	// ranks' floor(NodeTime/interval) accounting even when the crash lands
	// inside the transfer phase.
	recvBufs := make([][]float64, prep.Layout.NumStripes())
	err := atCrash()
	if err == nil {
		err = syncTransfers(prep, r, np, recvBufs, &recvArena{}, k, newSyncPipeline(len(np.RecvStripes)),
			func() error { return boundary(0) })
	}
	if err != nil {
		return fail(err)
	}

	ur := newUnitRunner(prep, r, np, kn, opts)
	own := prep.Layout.ColBlock(r.ID)
	ur.src = rowSources{rank: r.ID, own: b.RowRange(own.Lo, own.Hi), recv: recvBufs}
	total := ur.units()
	for u := 0; u < total; u++ {
		err := ur.run(u, sink)
		if err == nil {
			err = boundary(u + 1)
		}
		if err != nil {
			return fail(err)
		}
	}
	// The crash time lies beyond the rank's whole run: it completes normally
	// (its clock is frozen from here, so the fence cannot trip it) and joins
	// the survivors. A crash landing inside the recovery phase below is the
	// double-crash case: unrecoverable, aborting through failed().
	sink.flush(out)
	ck.cut = total
	r.Instant("epilogue.flush")
	if err := r.Barrier(); err != nil {
		return err
	}
	return runRecoveryPhase(prep, r, out, kn, opts, rec)
}

// runRecoveryPhase is the survivors' post-fence tail: nothing on a run
// without deaths, otherwise redistribute and re-execute every dead rank's
// unfinished units, then re-synchronize. The second barrier exists only on
// the death path, and the death list is fence-consistent, so every live rank
// takes the same barrier count.
func runRecoveryPhase(prep *Prep, r *cluster.Rank, out *liveOutput, kn unitKernel, opts ExecOptions, rec *recoveryCoordinator) error {
	deaths := r.Deaths()
	if len(deaths) == 0 {
		return nil
	}
	if err := recoverDead(prep, r, out, kn, opts, rec, deaths); err != nil {
		return err
	}
	return r.Barrier()
}

// recoverDead re-executes the dead ranks' unfinished work, one dead rank at
// a time in rank order (all survivors agree on the order, so the per-death
// flush pipelines can never wait on each other cyclically). All charges in
// here land in the Recovery category via BeginRecovery, and the phase's
// applied seconds and re-executed unit counts go to ResilienceStats.
func recoverDead(prep *Prep, r *cluster.Rank, out *liveOutput, kn unitKernel, opts ExecOptions, rec *recoveryCoordinator, deaths []cluster.DeathRecord) error {
	live := liveAfter(r.P, deaths)
	myPos := -1
	for i, id := range live {
		if id == r.ID {
			myPos = i
		}
	}
	if myPos < 0 {
		return fmt.Errorf("core: rank %d entered recovery but is recorded dead", r.ID)
	}
	r.BeginRecovery()
	defer r.EndRecovery()
	before := r.Breakdown().Recovery
	var stripes, panels int64
	for _, d := range deaths {
		s, p, err := recoverOne(prep, r, out, kn, opts, rec, d, live, myPos)
		stripes += s
		panels += p
		if err != nil {
			return err
		}
	}
	if applied := r.Breakdown().Recovery - before; stripes > 0 || panels > 0 || applied > 0 {
		r.CountRecovered(stripes, panels, applied)
	}
	return nil
}

// recoverOne re-executes one dead rank's units from its checkpoint cut. Each
// survivor takes the units at its position modulo the live count, computes
// them into a stagedSink, and flushes in global unit order through the
// death's shared pipeline — so the additions into the dead rank's C rows
// happen in one deterministic sequence regardless of survivor interleaving,
// and a same-seed replay reproduces C bit-for-bit.
func recoverOne(prep *Prep, r *cluster.Rank, out *liveOutput, kn unitKernel, opts ExecOptions, rec *recoveryCoordinator, d cluster.DeathRecord, live []int, myPos int) (stripes, panels int64, err error) {
	// Every survivor independently reconstructs the dead rank's batch list —
	// and with it the unit numbering its checkpoints used.
	ur := newUnitRunner(prep, r, &prep.Nodes[d.Rank], kn, opts)
	nAsync := len(ur.batches)
	todo := ur.units() - d.Units
	if todo <= 0 {
		return 0, 0, nil
	}
	pl := rec.pipeline(d.Rank)
	abort := func(e error) (int64, int64, error) {
		rec.fail(e) // release every survivor blocked in a flush pipeline
		return stripes, panels, e
	}

	// The dead rank's inputs for any row panels assigned here: its own B
	// column block plus the received stripes those panels reference, all
	// re-pulled over the reliable collective substrate. Built even under
	// SkipCompute so the re-fetch charges (timing) don't depend on it.
	for j := myPos; j < todo; j += len(live) {
		if d.Units+j >= nAsync {
			var rerr error
			if ur.src, rerr = refetchRowSources(prep, r, d, live, myPos, nAsync, todo); rerr != nil {
				return abort(rerr)
			}
			break
		}
	}

	sink := &stagedSink{}
	for j := myPos; j < todo; j += len(live) {
		u := d.Units + j
		if uerr := ur.run(u, sink); uerr != nil {
			return abort(uerr)
		}
		if werr := pl.wait(j); werr != nil {
			return stripes, panels, werr
		}
		sink.flush(out)
		pl.done()
		if u < nAsync {
			stripes += int64(ur.batches[u].hi - ur.batches[u].lo)
		} else {
			panels++
		}
	}
	return stripes, panels, nil
}

// refetchRowSources re-fetches the dense inputs a dead rank's row panels
// need — its own B column block and the received stripes referenced by the
// panels assigned to this survivor — and returns them as the panels' row
// sources. Traffic moves through RecoverPull (counted as collective,
// attributed to RefetchedElems) and each pull is charged one single-
// destination multicast to the Recovery clock.
func refetchRowSources(prep *Prep, r *cluster.Rank, d cluster.DeathRecord, live []int, myPos, nAsync, todo int) (rowSources, error) {
	layout, k := prep.Layout, prep.Params.K
	np := &prep.Nodes[d.Rank]
	net := r.Net()

	ownBlock := layout.ColBlock(d.Rank)
	ownElems := int64(ownBlock.Len()) * int64(k)
	ownBuf := make([]float64, ownElems)
	if _, err := r.RecoverPull(d.Rank, "B", []cluster.Region{{Off: 0, Elems: ownElems}}, ownBuf); err != nil {
		return rowSources{}, err
	}
	r.ChargeOp(cluster.Recovery, "recover.refetch", net.MulticastCost(ownElems, 1))

	deps := np.deps(layout)
	need := make(map[int32]bool)
	for j := myPos; j < todo; j += len(live) {
		u := d.Units + j
		if u < nAsync {
			continue
		}
		pi := u - nAsync
		for _, sid := range deps.sids[deps.ptr[pi]:deps.ptr[pi+1]] {
			need[sid] = true
		}
	}
	recvBufs := make([][]float64, layout.NumStripes())
	// Iterate RecvStripes, not the need set, so pulls happen in a
	// deterministic order.
	for _, sid := range np.RecvStripes {
		if !need[sid] {
			continue
		}
		colLo, colHi := layout.StripeCols(sid)
		owner := layout.StripeOwner(sid)
		ownerBlock := layout.ColBlock(owner)
		elems := int64(colHi-colLo) * int64(k)
		dst := make([]float64, elems)
		off := int64(colLo-int32(ownerBlock.Lo)) * int64(k)
		if _, err := r.RecoverPull(owner, "B", []cluster.Region{{Off: off, Elems: elems}}, dst); err != nil {
			return rowSources{}, err
		}
		r.ChargeOp(cluster.Recovery, "recover.refetch", net.MulticastCost(elems, 1))
		recvBufs[sid] = dst
	}
	return rowSources{rank: d.Rank, own: ownBuf, recv: recvBufs}, nil
}

// liveAfter returns the sorted rank ids not present in the death list.
func liveAfter(p int, deaths []cluster.DeathRecord) []int {
	dead := make(map[int]bool, len(deaths))
	for _, d := range deaths {
		dead[d.Rank] = true
	}
	live := make([]int, 0, p-len(deaths))
	for i := 0; i < p; i++ {
		if !dead[i] {
			live = append(live, i)
		}
	}
	return live
}

// recoverPipeline serializes the survivors' output flushes for one dead rank
// into global unit order. Deadlock-free by construction: unit j's owner is
// live[(j) mod len(live)] shifted by the death's cut, every survivor
// processes its units in increasing j, and compute happens before wait — so
// the owner of the lowest unflushed unit is never blocked on the pipeline.
type recoverPipeline struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	err  error
}

// wait blocks until it is unit j's turn to flush (or recovery failed).
func (pl *recoverPipeline) wait(j int) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.next != j && pl.err == nil {
		pl.cond.Wait()
	}
	return pl.err
}

// done marks the current unit flushed and wakes the next owner.
func (pl *recoverPipeline) done() {
	pl.mu.Lock()
	pl.next++
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// fail poisons the pipeline: current and future waiters return err.
func (pl *recoverPipeline) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// recoveryCoordinator hands out the per-dead-rank flush pipelines shared by
// the survivors of one Exec, and fans a recovery failure out to all of them
// (including ones created later) so no survivor is left waiting on a flush
// turn that will never come.
type recoveryCoordinator struct {
	mu    sync.Mutex
	err   error
	pipes map[int]*recoverPipeline
}

func (rc *recoveryCoordinator) pipeline(rank int) *recoverPipeline {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.pipes == nil {
		rc.pipes = map[int]*recoverPipeline{}
	}
	pl := rc.pipes[rank]
	if pl == nil {
		pl = &recoverPipeline{}
		pl.cond = sync.NewCond(&pl.mu)
		rc.pipes[rank] = pl
		if rc.err != nil {
			pl.err = rc.err
		}
	}
	return pl
}

func (rc *recoveryCoordinator) fail(err error) {
	rc.mu.Lock()
	if rc.err == nil {
		rc.err = err
	}
	pipes := make([]*recoverPipeline, 0, len(rc.pipes))
	for _, pl := range rc.pipes {
		pipes = append(pipes, pl)
	}
	rc.mu.Unlock()
	for _, pl := range pipes {
		pl.fail(err)
	}
}

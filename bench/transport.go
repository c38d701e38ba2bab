package main

import (
	"sync/atomic"
	"time"

	"twoface/internal/cluster"
)

// The cluster layer is measured from outside the program: cluster.Transport
// is the seam every byte between ranks crosses, so a decorator around the
// simulator's or the TCP backend's transport counts and times each call per
// rank without touching the executor.

// rankCounters holds one rank's transport activity. Each rank writes only
// its own, from several worker goroutines, hence the atomics; the padding
// keeps two ranks' counters off one cache line.
type rankCounters struct {
	readCalls, readRegions, readElems atomic.Int64
	readBusy                          atomic.Int64 // ns inside Read
	remoteCalls, remoteElems          atomic.Int64 // the Reads whose target is another rank
	remoteBusy                        atomic.Int64
	exposeCalls                       atomic.Int64
	barrierCalls, barrierWait         atomic.Int64 // ns blocked in Barrier: waiting for the slowest rank
	_                                 [48]byte
}

// transportStats is shared by every decorator of one cluster (one for the
// simulator, one per rank for TCP).
type transportStats struct {
	on    atomic.Bool // counting and span recording only while a traced segment runs
	ranks []rankCounters
	rec   *recorder

	// op and parent attribute the spans of the multiply in flight; the
	// caller sets them before Plan.Multiply. firstExpose is when the
	// multiply's ranks started running: Exec's first transport call.
	op, parent  atomic.Int64
	firstExpose atomic.Int64
}

func newTransportStats(p int, rec *recorder) *transportStats {
	return &transportStats{ranks: make([]rankCounters, p), rec: rec}
}

// beginOp attributes the transport calls that follow to one multiply.
func (s *transportStats) beginOp(op, parent int64) {
	s.op.Store(op)
	s.parent.Store(parent)
	s.firstExpose.Store(0)
}

// transportTotals is a snapshot of the counters summed over ranks, with the
// busiest rank's share of the two times that bound an op.
type transportTotals struct {
	readCalls, readRegions, readElems  int64
	remoteCalls, remoteElems           int64
	exposeCalls, barrierCalls          int64
	readBusy, remoteBusy, barrierWait  time.Duration
	readBusyMaxRank, remoteBusyMaxRank time.Duration
	barrierWaitMaxRank                 time.Duration
}

func (s *transportStats) totals() transportTotals {
	var t transportTotals
	for i := range s.ranks {
		c := &s.ranks[i]
		t.readCalls += c.readCalls.Load()
		t.readRegions += c.readRegions.Load()
		t.readElems += c.readElems.Load()
		t.remoteCalls += c.remoteCalls.Load()
		t.remoteElems += c.remoteElems.Load()
		t.exposeCalls += c.exposeCalls.Load()
		t.barrierCalls += c.barrierCalls.Load()
		rb, mb, bw := time.Duration(c.readBusy.Load()), time.Duration(c.remoteBusy.Load()), time.Duration(c.barrierWait.Load())
		t.readBusy += rb
		t.remoteBusy += mb
		t.barrierWait += bw
		t.readBusyMaxRank = max(t.readBusyMaxRank, rb)
		t.remoteBusyMaxRank = max(t.remoteBusyMaxRank, mb)
		t.barrierWaitMaxRank = max(t.barrierWaitMaxRank, bw)
	}
	return t
}

// reset zeroes the counters. The max-rank totals are not differences of
// maxima, so each segment starts from zero instead of subtracting snapshots.
// Only call it while no multiply is in flight.
func (s *transportStats) reset() {
	s.ranks = make([]rankCounters, len(s.ranks))
}

// countingTransport forwards every cluster.Transport method to the wrapped
// backend unchanged — results, errors and blocking behaviour included — and
// records a span for each of the five data-path calls, counting and timing
// the three the Two-Face executor's time goes to (Expose, Read, Barrier;
// Deposit and Collect are the baselines' collectives). The embedded
// interface forwards the rest (P, LocalRanks, WallClock, Leave, Abort,
// AbortErr, Reset, Finish, Close).
type countingTransport struct {
	cluster.Transport
	stats *transportStats
}

func (t *countingTransport) span(name string, rank int, start, end time.Time) {
	t.stats.rec.detail(name, rank, t.stats.op.Load(), t.stats.parent.Load(), start, end)
}

func (t *countingTransport) Expose(rank int, name string, data []float64) {
	if !t.stats.on.Load() {
		t.Transport.Expose(rank, name, data)
		return
	}
	start := time.Now()
	t.stats.firstExpose.CompareAndSwap(0, int64(t.stats.rec.at(start)))
	t.Transport.Expose(rank, name, data)
	t.stats.ranks[rank].exposeCalls.Add(1)
	t.span("cluster.expose", rank, start, time.Now())
}

func (t *countingTransport) Read(rank, target int, name string, regions []cluster.Region, dst []float64) (int64, error) {
	if !t.stats.on.Load() {
		return t.Transport.Read(rank, target, name, regions, dst)
	}
	start := time.Now()
	n, err := t.Transport.Read(rank, target, name, regions, dst)
	end := time.Now()
	c := &t.stats.ranks[rank]
	c.readCalls.Add(1)
	c.readRegions.Add(int64(len(regions)))
	c.readElems.Add(n)
	c.readBusy.Add(int64(end.Sub(start)))
	if target != rank {
		c.remoteCalls.Add(1)
		c.remoteElems.Add(n)
		c.remoteBusy.Add(int64(end.Sub(start)))
	}
	t.span("cluster.read", rank, start, end)
	return n, err
}

func (t *countingTransport) Deposit(rank int, data []float64) {
	if !t.stats.on.Load() {
		t.Transport.Deposit(rank, data)
		return
	}
	start := time.Now()
	t.Transport.Deposit(rank, data)
	t.span("cluster.deposit", rank, start, time.Now())
}

func (t *countingTransport) Collect(rank, from int) ([]float64, error) {
	if !t.stats.on.Load() {
		return t.Transport.Collect(rank, from)
	}
	start := time.Now()
	data, err := t.Transport.Collect(rank, from)
	t.span("cluster.collect", rank, start, time.Now())
	return data, err
}

func (t *countingTransport) Barrier(rank int) error {
	if !t.stats.on.Load() {
		return t.Transport.Barrier(rank)
	}
	start := time.Now()
	err := t.Transport.Barrier(rank)
	end := time.Now()
	c := &t.stats.ranks[rank]
	c.barrierCalls.Add(1)
	c.barrierWait.Add(int64(end.Sub(start)))
	t.span("cluster.barrier", rank, start, end)
	return err
}

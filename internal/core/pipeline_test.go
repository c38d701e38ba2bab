package core

import (
	"math"
	"testing"
	"time"

	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/dense"
)

// TestPipelineOverlapBounds is the accounting contract of the pipelined
// collective path: the SyncOverlap credit lies in [0, min(SyncComm,
// SyncComp)], so NodeTime is never worse than the serial accounting — the
// same ledger with the credit zeroed — and the credit actually engages.
func TestPipelineOverlapBounds(t *testing.T) {
	var totalOverlap float64
	for _, tc := range []struct {
		p int
		k int
		w int32
	}{
		{2, 4, 8}, {4, 8, 4}, {8, 16, 2}, {4, 32, 8},
	} {
		m := buildCase(t, 160, 2400, tc.k, uint64(tc.p*1000+tc.k))
		prep, err := Preprocess(m.coo, basicParams(tc.p, tc.k, tc.w))
		if err != nil {
			t.Fatal(err)
		}
		clu, err := cluster.New(tc.p, cluster.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(prep, m.b, clu, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.C.AlmostEqual(m.want, 1e-9) {
			t.Fatalf("p=%d k=%d: result differs from reference", tc.p, tc.k)
		}
		var serialMakespan float64
		for rank, bd := range res.Breakdowns {
			if bd.SyncOverlap < 0 || bd.SyncOverlap > math.Min(bd.SyncComm, bd.SyncComp)*(1+1e-9) {
				t.Fatalf("rank %d: overlap %g outside [0, min(%g, %g)]",
					rank, bd.SyncOverlap, bd.SyncComm, bd.SyncComp)
			}
			serial := bd
			serial.SyncOverlap = 0
			if bd.NodeTime() > serial.NodeTime() {
				t.Fatalf("rank %d: pipelined node time %g worse than serial %g", rank, bd.NodeTime(), serial.NodeTime())
			}
			serialMakespan = math.Max(serialMakespan, serial.NodeTime())
			totalOverlap += bd.SyncOverlap
		}
		if res.ModeledSeconds > serialMakespan {
			t.Fatalf("p=%d k=%d: pipelined makespan %g worse than serial %g",
				tc.p, tc.k, res.ModeledSeconds, serialMakespan)
		}
	}
	if totalOverlap <= 0 {
		t.Fatal("no config earned any overlap credit; pipelining is not engaging")
	}
}

// TestPanelDepsCorrect recomputes every node's panel→stripe dependency sets
// by brute force and checks the CSR, the single-gate release positions, and
// the release-sorted claim order.
func TestPanelDepsCorrect(t *testing.T) {
	m := buildCase(t, 150, 2000, 8, 11)
	prep, err := Preprocess(m.coo, basicParams(4, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	layout := prep.Layout
	for n := range prep.Nodes {
		np := &prep.Nodes[n]
		d := np.deps(layout)
		if d != np.deps(layout) {
			t.Fatalf("node %d: deps not cached", n)
		}
		pos := map[int32]int32{}
		for i, sid := range np.RecvStripes {
			pos[sid] = int32(i)
		}
		nPanels := np.Sync.NumPanels()
		if len(d.release) != nPanels || len(d.order) != nPanels || len(d.ptr) != nPanels+1 {
			t.Fatalf("node %d: deps sized %d/%d/%d for %d panels", n, len(d.release), len(d.order), len(d.ptr), nPanels)
		}
		for p := 0; p < nPanels; p++ {
			want := map[int32]bool{}
			rel := int32(-1)
			for _, e := range np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]] {
				sid := layout.StripeOfCol(e.Col)
				if at, ok := pos[sid]; ok {
					want[sid] = true
					if at > rel {
						rel = at
					}
				}
			}
			got := d.sids[d.ptr[p]:d.ptr[p+1]]
			if len(got) != len(want) {
				t.Fatalf("node %d panel %d: %d deps, want %d", n, p, len(got), len(want))
			}
			for _, sid := range got {
				if !want[sid] {
					t.Fatalf("node %d panel %d: spurious dep on stripe %d", n, p, sid)
				}
			}
			if d.release[p] != rel {
				t.Fatalf("node %d panel %d: release %d, want %d", n, p, d.release[p], rel)
			}
		}
		for i := 1; i < nPanels; i++ {
			if d.release[d.order[i-1]] > d.release[d.order[i]] {
				t.Fatalf("node %d: claim order not sorted by release at %d", n, i)
			}
		}
	}
}

// TestPanelScratchRelease is the scratch-retention regression: a pooled
// panelScratch must not keep dense-row slice headers (into B, a root's
// window, or a receive arena) alive past its return to the pool. resolveCols
// only truncates the row table, so without release the references survive in
// the backing array.
func TestPanelScratchRelease(t *testing.T) {
	ws := &panelScratch{}
	// Panel 0 reads own-block rows 0-2, panel 1 row 1 again.
	tab := &panelCols{colPtr: []int64{0, 3, 4}, cols: []int32{0, 1, 2, 1}, src: []int32{-1, -1, -1, -1}, off: []int32{0, 1, 2, 1}}
	own := make([]float64, 12)
	src := rowSources{own: own}
	if err := ws.resolveCols(tab, 0, src, 4); err != nil {
		t.Fatal(err)
	}
	if len(ws.rows) != 3 {
		t.Fatalf("table has %d entries, want 3", len(ws.rows))
	}

	ws.release()
	if len(ws.rows) != 0 {
		t.Fatalf("release left %d live entries", len(ws.rows))
	}
	if cap(ws.rows) < 3 {
		t.Fatalf("release dropped table capacity to %d", cap(ws.rows))
	}
	for i, ref := range ws.rows[:cap(ws.rows)] {
		if ref != nil {
			t.Fatalf("table backing slot %d still references a dense row after release", i)
		}
	}

	// The scratch must stay usable: a later panel on the same pooled object
	// resolves fresh rows correctly.
	if err := ws.resolveCols(tab, 1, src, 4); err != nil {
		t.Fatal(err)
	}
	if &ws.rows[0][0] != &own[4] {
		t.Fatal("resolved wrong row after a release/resolve cycle")
	}
}

// TestFingerprintTailSensitive is the stale-cache regression: the B
// fingerprint must observe the buffer's final element even when the strided
// sampling loop steps over it.
func TestFingerprintTailSensitive(t *testing.T) {
	// 34 elements: step = 34/16 = 2 samples 0, 2, ..., 32 and leaves the
	// final element (index 33) to the explicit tail mix.
	data := make([]float64, 34)
	for i := range data {
		data[i] = float64(i)
	}
	before := fingerprint(data)
	data[len(data)-1] = 1e9
	if fingerprint(data) == before {
		t.Fatal("tail-only mutation left the fingerprint unchanged")
	}

	// When the stride already lands on the last element it must not be
	// mixed twice: the fingerprint of a 17-element buffer (step 1) equals a
	// plain full-scan FNV.
	d2 := make([]float64, 17)
	for i := range d2 {
		d2[i] = float64(i) * 1.5
	}
	var h uint64 = 14695981039346656037
	for _, v := range d2 {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	if fingerprint(d2) != h {
		t.Fatal("full-coverage fingerprint double-mixes the tail")
	}
}

// TestRowCacheTailInvalidation drives the same bug end-to-end: mutating
// only B's last element between runs on one Prep must invalidate the
// cross-run row cache.
func TestRowCacheTailInvalidation(t *testing.T) {
	m := buildCase(t, 17, 120, 2, 5)
	prep, err := Preprocess(m.coo, basicParams(2, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	b := dense.Random(17, 2, 9) // 34 elements: strided sampling misses the tail
	prep.attachRowCaches(b)
	before := prep.cacheFP
	b.Data[len(b.Data)-1] += 1
	prep.attachRowCaches(b)
	if prep.cacheFP == before {
		t.Fatal("tail-only mutation of B did not change the cached fingerprint")
	}
}

// TestPipelinedRankFailureNoDeadlock aborts one rank's sync transfers with
// a fatal multicast-leg fault (failures past the retry budget) while
// pipelining is on. The failing rank must close its stripe gates so its own
// panel workers unblock, the error must reach the cluster abort path, and
// every surviving rank must return instead of hanging in the final barrier.
func TestPipelinedRankFailureNoDeadlock(t *testing.T) {
	m := buildCase(t, 120, 1500, 8, 7)
	params := basicParams(4, 8, 8)
	allSync := 0.0
	params.ForceSplit = &allSync // every remote stripe rides a multicast leg
	prep, err := Preprocess(m.coo, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(4, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{Seed: 1, Legs: []chaos.LegFault{{Origin: 1, Root: -1, Prob: 1, Fails: 10}}}
	inj, err := plan.Injector(4)
	if err != nil {
		t.Fatal(err)
	}
	clu.SetFaultInjector(inj)

	done := make(chan error, 1)
	go func() {
		_, err := Exec(prep, m.b, clu, ExecOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run survived a fatal multicast-leg plan")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster deadlocked after one rank's sync transfers failed")
	}
}

package tcp

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twoface/internal/cluster"
)

// newRing builds a p-rank TCP cluster inside one test process: p listeners
// on 127.0.0.1:0, one Transport per rank, rank i presenting digests[i].
func newRing(t testing.TB, p int, digests []uint64) []*Transport {
	return newRingVia(t, p, digests, func(_ int, addr string) string { return addr })
}

// newRingVia is newRing with every rank reached through route(rank, addr)
// instead of its listener's own address — the hook the fault-injecting
// proxies of fault_test.go slot into.
func newRingVia(t testing.TB, p int, digests []uint64, route func(rank int, addr string) string) []*Transport {
	t.Helper()
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = route(i, l.Addr().String())
	}
	trs := make([]*Transport, p)
	for i := range trs {
		tr, err := New(Config{
			Rank:           i,
			Addrs:          addrs,
			Listener:       listeners[i],
			Digest:         digests[i],
			DialTimeout:    5 * time.Second,
			RequestTimeout: 5 * time.Second,
			BarrierTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return trs
}

func TestHandshakeAndGet(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 7})
	trs[1].Expose(1, "B", []float64{1, 2, 3, 4, 5, 6, 7, 8})

	dst := make([]float64, 4)
	n, err := trs[0].Read(0, 1, "B", []cluster.Region{{Off: 2, Elems: 2}, {Off: 6, Elems: 2}}, dst)
	if err != nil || n != 4 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	want := []float64{3, 4, 7, 8}
	for i, v := range want {
		if dst[i] != v {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], v)
		}
	}
}

func TestDigestMismatchFailsHandshake(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 8})
	dst := make([]float64, 1)
	_, err := trs[0].Read(0, 1, "B", []cluster.Region{{Off: 0, Elems: 1}}, dst)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("want digest mismatch handshake failure, got %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	trs := newRing(t, 1, []uint64{7})
	c, err := net.Dial("tcp", trs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A frame with the right shape but wrong magic must be refused.
	payload := helloPayload(1, 0, 7)
	payload[0] = 0xde
	if err := writeFrame(c, msgHello, payload); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrameMax(c, maxErrPayload)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgErr || !strings.Contains(parseErr(body).Error(), "bad magic") {
		t.Fatalf("want bad-magic ERR frame, got type %d %q", typ, body)
	}
}

// Five bytes from an unauthenticated peer must not commit a maxFrame-sized
// buffer: the server closes the connection on any first-frame length beyond
// a HELLO's, and its heap stays where it was.
func TestOversizedFirstFrameClosedWithoutAllocating(t *testing.T) {
	trs := newRing(t, 1, []uint64{7})
	c, err := net.Dial("tcp", trs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Write(header(msgHello, maxFrame)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	assertClosedByPeer(t, c)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame/64 {
		t.Fatalf("server allocated %d bytes for an unauthenticated %d-byte length prefix", grew, maxFrame)
	}
}

func TestRemoteErrorsKeepSentinels(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 7})
	trs[1].Expose(1, "B", []float64{1, 2, 3, 4})

	dst := make([]float64, 8)
	if _, err := trs[0].Read(0, 1, "missing", []cluster.Region{{Off: 0, Elems: 1}}, dst); !errors.Is(err, cluster.ErrWindowMissing) {
		t.Fatalf("want ErrWindowMissing across the wire, got %v", err)
	}
	// OOB second region: the peer rejects before sending bytes, dst untouched.
	for i := range dst {
		dst[i] = -1
	}
	if _, err := trs[0].Read(0, 1, "B", []cluster.Region{{Off: 0, Elems: 2}, {Off: 3, Elems: 2}}, dst); !errors.Is(err, cluster.ErrRegionOOB) {
		t.Fatalf("want ErrRegionOOB across the wire, got %v", err)
	}
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("dst[%d] = %v: failed remote get leaked bytes", i, v)
		}
	}
}

func TestDepositCollect(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 7})
	trs[0].Deposit(0, []float64{10, 20})

	got, err := trs[1].Collect(1, 0)
	if err != nil || len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("collect: %v err=%v", got, err)
	}
	// Collecting from a rank that deposited nothing yields nil, not an error.
	got, err = trs[0].Collect(0, 1)
	if err != nil || got != nil {
		t.Fatalf("empty collect: %v err=%v", got, err)
	}
}

func TestBarrierReleasesAllRanks(t *testing.T) {
	trs := newRing(t, 3, []uint64{7, 7, 7})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			// Two consecutive barriers: exercises sequence bookkeeping.
			if err := tr.Barrier(i); err != nil {
				errs[i] = err
				return
			}
			errs[i] = tr.Barrier(i)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d barrier: %v", i, err)
		}
	}
}

func TestAbortReleasesBarrierAndPropagates(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 7})

	done := make(chan error, 1)
	go func() { done <- trs[1].Barrier(1) }()
	time.Sleep(50 * time.Millisecond) // let rank 1 block at the coordinator

	boom := errors.New("boom")
	if !trs[0].Abort(boom) {
		t.Fatal("first abort should win")
	}
	select {
	case err := <-done:
		if !errors.Is(err, cluster.ErrAborted) {
			t.Fatalf("blocked barrier should fail with ErrAborted, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not release the blocked barrier")
	}

	// The abort broadcast reaches rank 1's local state too.
	deadline := time.Now().Add(5 * time.Second)
	for trs[1].AbortErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("abort never propagated to rank 1")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(trs[1].AbortErr(), cluster.ErrAborted) {
		t.Fatalf("rank 1 abort err = %v", trs[1].AbortErr())
	}
	// New barriers fail immediately everywhere.
	if err := trs[0].Barrier(0); !errors.Is(err, cluster.ErrAborted) {
		t.Fatalf("post-abort barrier on rank 0: %v", err)
	}
}

// getShapes are the gets the budget test and the microbenchmark issue: one
// small enough that per-frame cost is all there is, and a stripe-sized one
// in one region and in four.
var getShapes = []struct {
	name    string
	total   int64
	regions []cluster.Region
}{
	{"256B", 32, []cluster.Region{{Off: 64, Elems: 32}}},
	{"64KiBx1", 8192, []cluster.Region{{Off: 0, Elems: 8192}}},
	{"64KiBx4", 8192, []cluster.Region{{Off: 0, Elems: 2048}, {Off: 4096, Elems: 2048}, {Off: 8192, Elems: 2048}, {Off: 12288, Elems: 2048}}},
}

// getRing is a two-rank ring whose rank 1 exposes a 128 KiB window "B".
func getRing(t testing.TB) []*Transport {
	trs := newRing(t, 2, []uint64{7, 7})
	w := make([]float64, 16384)
	for i := range w {
		w[i] = float64(i)
	}
	trs[1].Expose(1, "B", w)
	return trs
}

// The copy-and-allocation budget of a warmed remote get, requester and
// server together (both run in this process): a handful of small objects —
// the request, the frame headers, the reply descriptor — and nothing the
// size of the payload. A per-frame payload buffer on either side, as before
// this budget existed (9 allocations and 131 KB per 64 KiB get), costs at
// least the payload per get; the byte budget is half of it, because under
// the race detector sync.Pool drops a quarter of all Puts and the staging
// buffer is then allocated anew.
func TestGetAllocationBudget(t *testing.T) {
	const maxAllocs = 8
	trs := getRing(t)
	for _, shape := range getShapes {
		total := shape.total
		maxBytes := uint64(1024 + 8*total/2)
		dst := make([]float64, total)
		get := func() {
			if n, err := trs[0].Read(0, 1, "B", shape.regions, dst); err != nil || n != total {
				t.Fatalf("%s: n=%d err=%v", shape.name, n, err)
			}
		}
		get() // dial, handshake, and size the staging buffer and the server's scratch
		if allocs := testing.AllocsPerRun(200, get); allocs > maxAllocs {
			t.Errorf("%s: %v allocations per get, budget %d", shape.name, allocs, maxAllocs)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		if perGet := (after.TotalAlloc - before.TotalAlloc) / runs; perGet > maxBytes {
			t.Errorf("%s: %d bytes allocated per get, budget %d", shape.name, perGet, maxBytes)
		}
		last := shape.regions[len(shape.regions)-1]
		if want := float64(last.Off + last.Elems - 1); dst[total-1] != want {
			t.Errorf("%s: dst ends in %v, want %v", shape.name, dst[total-1], want)
		}
	}
}

func BenchmarkGetRoundTrip(b *testing.B) {
	trs := getRing(b)
	for _, shape := range getShapes {
		b.Run(shape.name, func(b *testing.B) {
			dst := make([]float64, shape.total)
			b.SetBytes(8 * shape.total)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trs[0].Read(0, 1, "B", shape.regions, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

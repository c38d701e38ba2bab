package tcp

import (
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/transport/conformance"
)

// fault is what a faultProxy does to the connections it carries.
type fault struct {
	// drip forwards one byte per write, in both directions, so no frame
	// ever arrives in one read.
	drip bool
	// cutAt > 0 forwards that many server-to-requester bytes and then drops
	// the connection, handshake reply (hdrLen bytes) included.
	cutAt int
	// reset drops with an RST instead of a FIN.
	reset bool
}

// faultProxy stands between a requester and the rank listening on backend:
// peers dial the proxy's address, and every accepted connection is pumped
// to a fresh backend connection through the fault. It breaks real sockets
// the way a lost peer or a bad link would, without a hook in the transport.
type faultProxy struct {
	ln      net.Listener
	backend string
	f       fault

	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

// viaProxy is a newRingVia route that puts a proxy with fault f in front of
// every rank selected by ranks (nil: all of them).
func viaProxy(t testing.TB, f fault, ranks ...int) func(int, string) string {
	return func(rank int, addr string) string {
		front := len(ranks) == 0
		for _, r := range ranks {
			front = front || r == rank
		}
		if !front {
			return addr
		}
		return newFaultProxy(t, addr, f)
	}
}

func newFaultProxy(t testing.TB, backend string, f fault) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, backend: backend, f: f}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return ln.Addr().String()
}

func (p *faultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(up, down, 0)         // requests
		go p.pump(down, up, p.f.cutAt) // replies
	}
}

// pump copies src to dst until either side fails or cutAt bytes have gone
// through (0: no cut), then drops both connections.
func (p *faultProxy) pump(dst, src net.Conn, cutAt int) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 32<<10)
	passed := 0
	for {
		n, err := src.Read(buf)
		chunk := buf[:n]
		cut := cutAt > 0 && passed+n >= cutAt
		if cut {
			chunk = chunk[:cutAt-passed]
		}
		passed += len(chunk)
		step := len(chunk)
		if p.f.drip {
			step = 1
		}
		for len(chunk) > 0 {
			if _, werr := dst.Write(chunk[:step]); werr != nil {
				return
			}
			chunk = chunk[step:]
		}
		if cut && p.f.reset {
			dst.(*net.TCPConn).SetLinger(0)
		}
		if cut || err != nil {
			return
		}
	}
}

const canary = -777.25

func canaries(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = canary
	}
	return d
}

func assertUntouched(t *testing.T, dst []float64) {
	t.Helper()
	for i, v := range dst {
		if v != canary {
			t.Fatalf("dst[%d] = %v: a failed get leaked bytes into the destination", i, v)
		}
	}
}

func idleConns(tr *Transport, peer int) int {
	tr.poolMu.Lock()
	defer tr.poolMu.Unlock()
	return len(tr.idle[peer])
}

// The all-or-nothing contract against real mid-transfer loss: whatever
// prefix of the DATA frame made it, dst keeps its canaries, Read reports an
// error, and the broken connection does not go back to the pool.
func TestGetThroughBrokenConnectionLeavesDstUntouched(t *testing.T) {
	const elems = 8192 // a 64 KiB reply
	for _, tc := range []struct {
		name string
		f    fault
	}{
		{"cut inside the DATA header", fault{cutAt: hdrLen + 3}},
		{"reset after the DATA header", fault{cutAt: hdrLen + hdrLen, reset: true}},
		{"truncated mid-DATA then closed", fault{cutAt: hdrLen + hdrLen + 8*elems/2}},
		{"truncated one byte short", fault{cutAt: hdrLen + hdrLen + 8*elems - 1}},
		{"truncated mid-DATA, dripping", fault{cutAt: hdrLen + hdrLen + 1001, drip: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := newRingVia(t, 2, []uint64{7, 7}, viaProxy(t, tc.f, 1))
			w := make([]float64, elems)
			for i := range w {
				w[i] = float64(i) + 0.5
			}
			trs[1].Expose(1, "B", w)

			dst := canaries(elems)
			n, err := trs[0].Read(0, 1, "B", []cluster.Region{{Off: 0, Elems: elems / 2}, {Off: elems / 2, Elems: elems / 2}}, dst)
			if err == nil {
				t.Fatalf("read through %q succeeded (n=%d)", tc.name, n)
			}
			assertUntouched(t, dst)
			if got := idleConns(trs[0], 1); got != 0 {
				t.Fatalf("%d connections pooled after a broken exchange", got)
			}
		})
	}
}

// Frame reads must not assume a frame arrives in one read: with every byte
// its own segment, in both directions, a multi-region get still completes
// bit for bit.
func TestSlowDripGetBitExact(t *testing.T) {
	trs := newRingVia(t, 2, []uint64{7, 7}, viaProxy(t, fault{drip: true}, 1))
	w := make([]float64, 0, 64*len(awkwardFloats))
	for len(w) < cap(w) {
		w = append(w, awkwardFloats...)
	}
	trs[1].Expose(1, "B", w)

	regions := []cluster.Region{{Off: 5, Elems: 100}, {Off: 0, Elems: 3}, {Off: int64(len(w)) - 40, Elems: 40}}
	dst := canaries(143)
	n, err := trs[0].Read(0, 1, "B", regions, dst)
	if err != nil || n != 143 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	var want []float64
	for _, reg := range regions {
		want = append(want, w[reg.Off:reg.Off+reg.Elems]...)
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dst[%d] = %#x, want %#x", i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
		}
	}
	if got := idleConns(trs[0], 1); got != 1 {
		t.Fatalf("%d connections pooled after a clean exchange, want 1", got)
	}
}

// The whole transport contract — gets, collects, barriers, abort — holds
// when every connection of the ring drips.
func TestConformanceThroughSlowDrip(t *testing.T) {
	conformance.Run(t, conformance.Backend{
		Name: "tcp-drip",
		New: func(t *testing.T, p int) []cluster.Transport {
			digests := make([]uint64, p)
			trs := newRingVia(t, p, digests, viaProxy(t, fault{drip: true}))
			out := make([]cluster.Transport, p)
			for i, tr := range trs {
				out[i] = tr
			}
			return out
		},
	})
}

// fakePeer is a rank that completes the handshake honestly and then answers
// every request with whatever respond writes — the lying or confused peer a
// requester has to survive.
func fakePeer(t *testing.T, respond func(c net.Conn)) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if _, _, err := readFrameMax(c, helloLen); err != nil {
					return
				}
				if writeFrame(c, msgHelloOK, nil) != nil {
					return
				}
				for {
					if _, _, err := readFrameMax(c, maxGetPayload); err != nil {
						return
					}
					respond(c)
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	return ln.Addr().String()
}

func header(typ uint8, n uint32) []byte {
	var hdr [hdrLen]byte
	putHeader(hdr[:], typ, int(n))
	return hdr[:]
}

// A reply is judged on its 5-byte header: anything but the exact DATA the
// get asked for (or a bounded ERR) fails the read at once — no buffer is
// sized from the claim, no payload is awaited, dst is untouched and the
// connection is dropped, not pooled.
func TestRequesterRejectsOutOfBoundsReply(t *testing.T) {
	const elems = 16
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"oversized DATA", header(msgData, 8*elems+8)},
		{"short DATA", header(msgData, 8*elems-8)},
		{"DATA claiming maxFrame", header(msgData, maxFrame)},
		{"oversized ERR", header(msgErr, maxErrPayload+1)},
		{"wrong type", header(msgCollectData, 8*elems)},
		{"request type as reply", header(msgGet, 8*elems)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer := fakePeer(t, func(c net.Conn) { c.Write(tc.reply) })
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			const timeout = 10 * time.Second
			tr, err := New(Config{Rank: 0, Addrs: []string{ln.Addr().String(), peer}, Listener: ln,
				Digest: 7, DialTimeout: timeout, RequestTimeout: timeout, BarrierTimeout: timeout})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dst := canaries(elems)
			start := time.Now()
			_, err = tr.Read(0, 1, "B", []cluster.Region{{Off: 0, Elems: elems}}, dst)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "payload bytes") {
				t.Fatalf("want a frame-bounds error, got %v", err)
			}
			// The peer sends nothing after its header: only a requester that
			// went on to read the claimed payload would sit out the timeout.
			if waited := time.Since(start); waited > timeout/2 {
				t.Fatalf("read took %v: the header was not judged before the payload was awaited", waited)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame/64 {
				t.Fatalf("requester allocated %d bytes on a lying header", grew)
			}
			assertUntouched(t, dst)
			if got := idleConns(tr, 1); got != 0 {
				t.Fatalf("%d connections pooled after an out-of-bounds reply", got)
			}
		})
	}
}

// handshaken dials tr and completes an honest handshake over a raw socket.
func handshaken(t *testing.T, tr *Transport, p int, digest uint64) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(c, msgHello, helloPayload(p, 0, digest)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrameMax(c, maxErrPayload); err != nil || typ != msgHelloOK {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}
	return c
}

func assertClosedByPeer(t *testing.T, c net.Conn) {
	t.Helper()
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want the server to close the connection, got n=%d err=%v", n, err)
	}
}

// A completed handshake does not buy a peer a maxFrame-sized buffer: a GET
// header claiming 1 GiB closes the connection with the server's heap where
// it was.
func TestOversizedGetAfterHandshakeClosedWithoutAllocating(t *testing.T) {
	trs := newRing(t, 1, []uint64{7})
	c := handshaken(t, trs[0], 1, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Write(header(msgGet, maxFrame)); err != nil {
		t.Fatal(err)
	}
	assertClosedByPeer(t, c)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame/64 {
		t.Fatalf("server allocated %d bytes for a %d-byte length prefix", grew, maxFrame)
	}
}

// Every request type has its own bound, and a frame that is not a request
// at all is no better than an oversized one.
func TestOutOfBoundsRequestClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"GET one past its bound", header(msgGet, maxGetPayload+1)},
		{"GET too short to parse", append(header(msgGet, 2), 0, 0)},
		{"COLLECT with a payload", append(header(msgCollect, 1), 0)},
		{"BARRIER of 9 bytes", append(header(msgBarrier, 9), make([]byte, 9)...)},
		{"BARRIER of 0 bytes", header(msgBarrier, 0)},
		{"ABORT beyond 64 KiB", header(msgAbort, maxErrPayload+1)},
		{"second HELLO", append(header(msgHello, helloLen), helloPayload(1, 0, 7)...)},
		{"a response type", header(msgData, 0)},
		{"unknown type", header(99, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := newRing(t, 1, []uint64{7})
			c := handshaken(t, trs[0], 1, 7)
			if _, err := c.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			assertClosedByPeer(t, c)
		})
	}
}

// A hostile region list gets an ERR frame, not a crashed rank: an end that
// overflows int64 would slip past the window-length comparison.
func TestOverflowingRegionAnsweredWithErr(t *testing.T) {
	trs := newRing(t, 1, []uint64{7})
	trs[0].Expose(0, "B", []float64{1, 2, 3, 4})
	c := handshaken(t, trs[0], 1, 7)
	for _, reg := range []cluster.Region{{Off: math.MaxInt64, Elems: 1}, {Off: 1, Elems: math.MaxInt64}, {Off: 0, Elems: 5}} {
		req, err := getPayload("B", []cluster.Region{reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(c, msgGet, req); err != nil {
			t.Fatal(err)
		}
		typ, body, err := readFrameMax(c, maxErrPayload)
		if err != nil || typ != msgErr {
			t.Fatalf("region %+v: typ=%d err=%v, want an ERR frame", reg, typ, err)
		}
		t.Logf("region %+v: %v", reg, parseErr(body))
	}
	// The connection and the rank are still in business.
	req, _ := getPayload("B", []cluster.Region{{Off: 1, Elems: 2}})
	if err := writeFrame(c, msgGet, req); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrameMax(c, 16)
	if err != nil || typ != msgData || len(body) != 16 || binary.LittleEndian.Uint64(body) != math.Float64bits(2) {
		t.Fatalf("get after the rejected ones: typ=%d body=%x err=%v", typ, body, err)
	}
}

func TestOverlongWindowNameRefusedBeforeTheWire(t *testing.T) {
	trs := newRing(t, 2, []uint64{7, 7})
	dst := canaries(1)
	_, err := trs[0].Read(0, 1, strings.Repeat("n", 65536), []cluster.Region{{Off: 0, Elems: 1}}, dst)
	if err == nil || !strings.Contains(err.Error(), "65535") {
		t.Fatalf("want the name-length error, got %v", err)
	}
	assertUntouched(t, dst)
}

package tcp

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twoface/internal/cluster"
)

// Config describes one rank's endpoint of a multi-process TCP cluster.
type Config struct {
	// Rank is this process's rank, 0-based.
	Rank int
	// Addrs holds every rank's listen address, indexed by rank. Addrs[Rank]
	// is informational (the caller binds Listener); the rest are dialed.
	Addrs []string
	// Listener is this rank's bound listener. The caller binds it (so
	// "127.0.0.1:0" works: bind first, publish the concrete port, then
	// construct the transport). The transport owns and closes it.
	Listener net.Listener
	// Digest fingerprints the workload (matrix, plan, config). Handshakes
	// fail unless every peer presents the same digest, so two processes
	// cannot silently multiply different matrices into one C.
	Digest uint64
	// DialTimeout bounds how long connecting to a peer may take, retries
	// included; it covers peers that start a little later. Default 30s.
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response exchange (GET, COLLECT,
	// ABORT). Default 60s.
	RequestTimeout time.Duration
	// BarrierTimeout bounds one barrier entry: how long this rank may wait
	// for the stragglers. A rank that waits longer aborts the cluster
	// instead of hanging forever on a silently dead peer. Default 120s.
	BarrierTimeout time.Duration
	// Logger receives connection-level events; nil disables logging.
	Logger *slog.Logger
}

// Transport is the TCP implementation of cluster.Transport: one rank per
// process, length-prefixed frames, wall-clock ledger. See the package
// comment for the wire protocol and DESIGN.md section 14 for how it slots
// under the executor.
//
// Barrier protocol: rank 0 coordinates. Every rank numbers its barrier
// entries with a local sequence counter; because the executor is SPMD (all
// ranks run the same program), entry N on one rank matches entry N on every
// other. Non-zero ranks send BARRIER(seq) to rank 0 and block for the
// RELEASE; rank 0 enters locally. When all P entries for a sequence have
// arrived, the coordinator releases them. An abort anywhere is broadcast to
// every rank and fails the coordinator, which releases all current and
// future waiters with the abort error — the same fail-fast contract the
// in-process barrier provides.
type Transport struct {
	cfg    Config
	p      int
	locals []int

	mu      sync.RWMutex
	windows map[string][]float64
	staging []float64

	abortVal atomic.Pointer[abortBox]

	poolMu sync.Mutex
	idle   map[int][]net.Conn

	coord *coordinator // rank 0 only

	barSeq atomic.Uint64

	closed   atomic.Bool
	acceptWG sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{} // accepted connections, for Close
}

type abortBox struct{ err error }

// New constructs the transport and starts serving peers on cfg.Listener.
// The caller must have bound the listener already; peers may begin dialing
// immediately after New returns.
func New(cfg Config) (*Transport, error) {
	p := len(cfg.Addrs)
	if p < 1 {
		return nil, errors.New("tcp: need at least one rank address")
	}
	if cfg.Rank < 0 || cfg.Rank >= p {
		return nil, fmt.Errorf("tcp: rank %d out of range [0,%d)", cfg.Rank, p)
	}
	if cfg.Listener == nil {
		return nil, errors.New("tcp: listener required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.BarrierTimeout <= 0 {
		cfg.BarrierTimeout = 120 * time.Second
	}
	t := &Transport{
		cfg:     cfg,
		p:       p,
		locals:  []int{cfg.Rank},
		windows: map[string][]float64{},
		idle:    map[int][]net.Conn{},
		conns:   map[net.Conn]struct{}{},
	}
	if cfg.Rank == 0 {
		t.coord = newCoordinator(p)
	}
	t.acceptWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *Transport) logger() *slog.Logger { return t.cfg.Logger }

// --- cluster.Transport: identity ---

func (t *Transport) P() int            { return t.p }
func (t *Transport) LocalRanks() []int { return t.locals }
func (t *Transport) WallClock() bool   { return true }

// --- cluster.Transport: windows ---

func (t *Transport) Expose(rank int, name string, data []float64) {
	t.mu.Lock()
	t.windows[name] = data
	t.mu.Unlock()
}

func (t *Transport) Read(rank, target int, name string, regions []cluster.Region, dst []float64) (int64, error) {
	if target < 0 || target >= t.p {
		return 0, fmt.Errorf("cluster: rank %d: window target %d out of range [0,%d): %w", rank, target, t.p, cluster.ErrWindowMissing)
	}
	if target == t.cfg.Rank {
		return t.readLocal(rank, target, name, regions, dst)
	}
	// Validate what we can before going to the wire; the window length is
	// only known to the target, so OOB comes back as an ERR frame.
	var total int64
	for _, reg := range regions {
		if reg.Off < 0 || reg.Elems < 0 {
			return 0, fmt.Errorf("cluster: rank %d: region [%d,+%d) outside window %q of rank %d: %w",
				rank, reg.Off, reg.Elems, name, target, cluster.ErrRegionOOB)
		}
		total += reg.Elems
	}
	if int64(len(dst)) < total {
		return 0, fmt.Errorf("cluster: rank %d: destination too small for indexed get (%d < %d): %w",
			rank, len(dst), total, cluster.ErrDstTooSmall)
	}
	payload, err := t.roundTrip(target, msgGet, getPayload(name, regions), msgData, t.cfg.RequestTimeout)
	if err != nil {
		return 0, err
	}
	// The full response frame is buffered before any byte lands in dst, so
	// a mid-transfer connection loss surfaces as an error with dst
	// untouched — the transport-level half of the all-or-nothing contract.
	if err := decodeFloats(payload, dst[:total]); err != nil {
		return 0, err
	}
	return total, nil
}

func (t *Transport) readLocal(rank, target int, name string, regions []cluster.Region, dst []float64) (int64, error) {
	t.mu.RLock()
	w, ok := t.windows[name]
	t.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("cluster: rank %d: no window %q exposed by rank %d: %w", rank, name, target, cluster.ErrWindowMissing)
	}
	n, err := cluster.CheckRegions(rank, target, name, regions, len(w), len(dst))
	if err != nil {
		return 0, err
	}
	var off int64
	for _, reg := range regions {
		copy(dst[off:off+reg.Elems], w[reg.Off:reg.Off+reg.Elems])
		off += reg.Elems
	}
	return n, nil
}

// --- cluster.Transport: staging ---

func (t *Transport) Deposit(rank int, data []float64) {
	t.mu.Lock()
	t.staging = data
	t.mu.Unlock()
}

func (t *Transport) Collect(rank, from int) ([]float64, error) {
	if from < 0 || from >= t.p {
		return nil, fmt.Errorf("cluster: rank %d: collect from %d out of range [0,%d)", rank, from, t.p)
	}
	if from == t.cfg.Rank {
		t.mu.RLock()
		d := t.staging
		t.mu.RUnlock()
		return d, nil
	}
	payload, err := t.roundTrip(from, msgCollect, nil, msgCollectData, t.cfg.RequestTimeout)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, errors.New("tcp: malformed collect response")
	}
	if payload[0] == 0 {
		return nil, nil // peer had nothing deposited
	}
	out := make([]float64, len(payload[1:])/8)
	if err := decodeFloats(payload[1:], out); err != nil {
		return nil, err
	}
	return out, nil
}

// --- cluster.Transport: barrier ---

func (t *Transport) Barrier(rank int) error {
	if err := t.AbortErr(); err != nil {
		return err
	}
	seq := t.barSeq.Add(1) - 1
	if t.cfg.Rank == 0 {
		ch := make(chan error, 1)
		t.coord.enterLocal(seq, ch)
		select {
		case err := <-ch:
			return err
		case <-time.After(t.cfg.BarrierTimeout):
			err := fmt.Errorf("tcp: barrier %d timed out after %v waiting for peers", seq, t.cfg.BarrierTimeout)
			t.Abort(err)
			return t.AbortErr()
		}
	}
	var buf [8]byte
	putUint64(buf[:], seq)
	if _, err := t.roundTrip(0, msgBarrier, buf[:], msgRelease, t.cfg.BarrierTimeout); err != nil {
		return err
	}
	return nil
}

// Leave is unsupported: crash recovery needs surviving processes to adopt a
// dead rank's barrier slot, which this backend does not implement. The
// facade refuses to combine recovery with a wall-clock transport, so this
// is unreachable from the CLI.
func (t *Transport) Leave(rank int) {
	panic("tcp: Leave (crash-recovery membership) is not supported by the TCP transport")
}

// --- cluster.Transport: abort ---

func (t *Transport) Abort(cause error) bool {
	wrapped := cause
	if !errors.Is(cause, cluster.ErrAborted) {
		wrapped = cluster.NewAbortError(cause)
	}
	if !t.abortVal.CompareAndSwap(nil, &abortBox{err: wrapped}) {
		return false
	}
	if t.coord != nil {
		t.coord.fail(wrapped)
	}
	// Best-effort broadcast so remote ranks fail fast instead of timing
	// out; a peer we cannot reach is already failing on its own.
	for peer := 0; peer < t.p; peer++ {
		if peer == t.cfg.Rank {
			continue
		}
		go func(peer int) {
			if _, err := t.roundTrip(peer, msgAbort, []byte(cause.Error()), msgAbortAck, t.cfg.RequestTimeout); err != nil {
				if l := t.logger(); l != nil {
					l.Debug("abort broadcast failed", "peer", peer, "err", err.Error())
				}
			}
		}(peer)
	}
	return true
}

func (t *Transport) AbortErr() error {
	if b := t.abortVal.Load(); b != nil {
		return b.err
	}
	return nil
}

// abortRemote records an abort received from a peer without re-broadcasting
// (the originating rank already notifies everyone).
func (t *Transport) abortRemote(msg string) {
	wrapped := cluster.NewAbortError(errors.New(msg))
	if t.abortVal.CompareAndSwap(nil, &abortBox{err: wrapped}) {
		if t.coord != nil {
			t.coord.fail(wrapped)
		}
		if l := t.logger(); l != nil {
			l.Warn("cluster aborted by peer", "cause", msg)
		}
	}
}

// --- cluster.Transport: lifecycle ---

func (t *Transport) Reset() {
	t.mu.Lock()
	t.windows = map[string][]float64{}
	t.staging = nil
	t.mu.Unlock()
}

// Finish is a no-op: the TCP transport is single-shot per process (one
// multiply, then the gather, then Close), and its abort state is sticky —
// a late-arriving remote abort must still fail the post-run C gather.
func (t *Transport) Finish() {}

func (t *Transport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.cfg.Listener.Close()
	t.poolMu.Lock()
	for _, conns := range t.idle {
		for _, c := range conns {
			c.Close()
		}
	}
	t.idle = map[int][]net.Conn{}
	t.poolMu.Unlock()
	t.connMu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.connMu.Unlock()
	t.acceptWG.Wait()
	return err
}

// Addr returns the listener's concrete address (useful after binding :0).
func (t *Transport) Addr() string { return t.cfg.Listener.Addr().String() }

// --- client side: connection pool and request/response ---

// getConn returns a pooled or freshly dialed+handshaked connection to peer.
func (t *Transport) getConn(peer int) (net.Conn, error) {
	t.poolMu.Lock()
	if conns := t.idle[peer]; len(conns) > 0 {
		c := conns[len(conns)-1]
		t.idle[peer] = conns[:len(conns)-1]
		t.poolMu.Unlock()
		return c, nil
	}
	t.poolMu.Unlock()
	return t.dial(peer)
}

func (t *Transport) putConn(peer int, c net.Conn) {
	if t.closed.Load() {
		c.Close()
		return
	}
	t.poolMu.Lock()
	t.idle[peer] = append(t.idle[peer], c)
	t.poolMu.Unlock()
}

// dial connects to a peer with retry (peers may still be starting up) and
// performs the handshake.
func (t *Transport) dial(peer int) (net.Conn, error) {
	addr := t.cfg.Addrs[peer]
	deadline := time.Now().Add(t.cfg.DialTimeout)
	var lastErr error
	for {
		if t.closed.Load() {
			return nil, errors.New("tcp: transport closed")
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			if err := t.handshake(c); err != nil {
				c.Close()
				return nil, fmt.Errorf("tcp: handshake with rank %d (%s): %w", peer, addr, err)
			}
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcp: dial rank %d (%s): %w", peer, addr, lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (t *Transport) handshake(c net.Conn) error {
	c.SetDeadline(time.Now().Add(t.cfg.RequestTimeout))
	defer c.SetDeadline(time.Time{})
	if err := writeFrame(c, msgHello, helloPayload(t.p, t.cfg.Rank, t.cfg.Digest)); err != nil {
		return err
	}
	typ, payload, err := readFrame(c)
	if err != nil {
		return err
	}
	switch typ {
	case msgHelloOK:
		return nil
	case msgErr:
		return parseErr(payload)
	default:
		return fmt.Errorf("tcp: unexpected handshake response type %d", typ)
	}
}

// roundTrip sends one request frame to peer and reads the single response,
// expecting wantTyp (an ERR response is decoded into an error). The
// connection returns to the pool only after a fully successful exchange.
func (t *Transport) roundTrip(peer int, typ uint8, payload []byte, wantTyp uint8, timeout time.Duration) ([]byte, error) {
	c, err := t.getConn(peer)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(timeout))
	if err := writeFrame(c, typ, payload); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcp: request to rank %d: %w", peer, err)
	}
	respTyp, resp, err := readFrame(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcp: response from rank %d: %w", peer, err)
	}
	c.SetDeadline(time.Time{})
	t.putConn(peer, c)
	switch respTyp {
	case wantTyp:
		return resp, nil
	case msgErr:
		rerr := parseErr(resp)
		// A peer answering "aborted" means the cluster is going down:
		// record it locally so our own loops stop promptly too.
		if errors.Is(rerr, cluster.ErrAborted) && t.AbortErr() == nil {
			t.abortRemote(rerr.Error())
		}
		return nil, rerr
	default:
		return nil, fmt.Errorf("tcp: unexpected response type %d from rank %d", respTyp, peer)
	}
}

// --- server side ---

func (t *Transport) acceptLoop() {
	defer t.acceptWG.Done()
	for {
		c, err := t.cfg.Listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.connMu.Lock()
		t.conns[c] = struct{}{}
		t.connMu.Unlock()
		go t.serveConn(c)
	}
}

func (t *Transport) serveConn(c net.Conn) {
	defer func() {
		t.connMu.Lock()
		delete(t.conns, c)
		t.connMu.Unlock()
		c.Close()
	}()
	// First frame must be a valid handshake. Until it is, the peer is
	// anyone who can reach the port, so a length prefix beyond a HELLO's
	// closes the connection before any payload buffer exists.
	typ, payload, err := readFrameMax(c, helloLen)
	if err != nil {
		return
	}
	if typ != msgHello {
		respondErr(c, fmt.Errorf("tcp: expected hello, got frame type %d", typ))
		return
	}
	peer, err := parseHello(payload, t.p, t.cfg.Digest)
	if err != nil {
		respondErr(c, err)
		if l := t.logger(); l != nil {
			l.Warn("rejected peer handshake", "err", err.Error())
		}
		return
	}
	if err := writeFrame(c, msgHelloOK, nil); err != nil {
		return
	}
	for {
		typ, payload, err := readFrame(c)
		if err != nil {
			return // connection closed by peer (normal at shutdown)
		}
		if err := t.serveRequest(c, peer, typ, payload); err != nil {
			return
		}
	}
}

// serveRequest answers one request frame; a non-nil return closes the conn.
func (t *Transport) serveRequest(c net.Conn, peer int, typ uint8, payload []byte) error {
	switch typ {
	case msgGet:
		name, regions, err := parseGet(payload)
		if err != nil {
			return respondErr(c, err)
		}
		if aerr := t.AbortErr(); aerr != nil {
			return respondErr(c, aerr)
		}
		t.mu.RLock()
		w, ok := t.windows[name]
		t.mu.RUnlock()
		if !ok {
			return respondErr(c, fmt.Errorf("cluster: rank %d: no window %q exposed by rank %d: %w",
				peer, name, t.cfg.Rank, cluster.ErrWindowMissing))
		}
		total, err := cluster.CheckRegions(peer, t.cfg.Rank, name, regions, len(w), int(total64(regions)))
		if err != nil {
			return respondErr(c, err)
		}
		out := make([]byte, 0, 8*total)
		for _, reg := range regions {
			out = encodeFloats(out, w[reg.Off:reg.Off+reg.Elems])
		}
		return writeFrame(c, msgData, out)

	case msgCollect:
		t.mu.RLock()
		d := t.staging
		t.mu.RUnlock()
		if d == nil {
			return writeFrame(c, msgCollectData, []byte{0})
		}
		out := make([]byte, 0, 1+8*len(d))
		out = append(out, 1)
		out = encodeFloats(out, d)
		return writeFrame(c, msgCollectData, out)

	case msgBarrier:
		if t.coord == nil {
			return respondErr(c, fmt.Errorf("tcp: rank %d is not the barrier coordinator", t.cfg.Rank))
		}
		if len(payload) != 8 {
			return respondErr(c, errors.New("tcp: malformed barrier payload"))
		}
		// Register the waiter and keep reading: the release frame is written
		// by whichever goroutine completes the barrier (the peer holds this
		// connection out of its pool until the response lands, so no other
		// frame competes for the writer side).
		t.coord.enterRemote(getUint64(payload), c)
		return nil

	case msgAbort:
		t.abortRemote(string(payload))
		return writeFrame(c, msgAbortAck, nil)

	default:
		return respondErr(c, fmt.Errorf("tcp: unknown request type %d", typ))
	}
}

func total64(regions []cluster.Region) int64 {
	var n int64
	for _, reg := range regions {
		n += reg.Elems
	}
	return n
}

// --- barrier coordinator (rank 0) ---

// coordinator tracks barrier entries by sequence number and releases each
// cohort when all p ranks have arrived. fail releases everyone, current and
// future, with the abort error.
//
// Releases are executed synchronously by the goroutine that completes a
// cohort, remote responses before the local channel send. The ordering is
// load-bearing at shutdown: rank 0's final Barrier must not return (and let
// the process exit) until the RELEASE frames to every remote waiter have
// been handed to the kernel, or late ranks see a bare EOF instead of their
// release.
type coordinator struct {
	p       int
	mu      sync.Mutex
	arrived map[uint64]int
	remote  map[uint64][]net.Conn
	local   map[uint64][]chan error
	failed  error
}

func newCoordinator(p int) *coordinator {
	return &coordinator{
		p:       p,
		arrived: map[uint64]int{},
		remote:  map[uint64][]net.Conn{},
		local:   map[uint64][]chan error{},
	}
}

// enterLocal registers rank 0's own arrival; ch receives the release.
func (co *coordinator) enterLocal(seq uint64, ch chan error) {
	co.mu.Lock()
	if co.failed != nil {
		err := co.failed
		co.mu.Unlock()
		ch <- err
		return
	}
	co.arrived[seq]++
	co.local[seq] = append(co.local[seq], ch)
	co.maybeReleaseLocked(seq)
}

// enterRemote registers a remote rank's arrival; its release (or failure) is
// written to c as a frame by the releasing goroutine.
func (co *coordinator) enterRemote(seq uint64, c net.Conn) {
	co.mu.Lock()
	if co.failed != nil {
		err := co.failed
		co.mu.Unlock()
		respondErr(c, err)
		return
	}
	co.arrived[seq]++
	co.remote[seq] = append(co.remote[seq], c)
	co.maybeReleaseLocked(seq)
}

// maybeReleaseLocked releases cohort seq if complete. Called with co.mu
// held; unlocks it in all paths.
func (co *coordinator) maybeReleaseLocked(seq uint64) {
	if co.arrived[seq] < co.p {
		co.mu.Unlock()
		return
	}
	remote, local := co.remote[seq], co.local[seq]
	delete(co.arrived, seq)
	delete(co.remote, seq)
	delete(co.local, seq)
	co.mu.Unlock()
	for _, c := range remote {
		writeFrame(c, msgRelease, nil) // failed write: that peer is dying anyway
	}
	for _, ch := range local {
		ch <- nil
	}
}

func (co *coordinator) fail(err error) {
	co.mu.Lock()
	if co.failed != nil {
		co.mu.Unlock()
		return
	}
	co.failed = err
	var conns []net.Conn
	var chans []chan error
	for seq, ws := range co.remote {
		conns = append(conns, ws...)
		delete(co.remote, seq)
	}
	for seq, ws := range co.local {
		chans = append(chans, ws...)
		delete(co.local, seq)
	}
	for seq := range co.arrived {
		delete(co.arrived, seq)
	}
	co.mu.Unlock()
	for _, c := range conns {
		respondErr(c, err)
	}
	for _, ch := range chans {
		ch <- err
	}
}

// --- tiny endian helpers (avoid importing encoding/binary here) ---

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

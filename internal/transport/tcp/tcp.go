package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
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

	// stage pools the buffers GET replies are received into before they are
	// copied to the caller's dst (*[]byte, any capacity).
	stage sync.Pool

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
	if err := checkByteOrder(binary.NativeEndian); err != nil {
		return nil, err
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
	if total > maxFrame/8 {
		return 0, fmt.Errorf("tcp: rank %d: get of %d elements exceeds the frame limit of %d bytes", rank, total, maxFrame)
	}
	req, err := getPayload(name, regions)
	if err != nil {
		return 0, err
	}
	// The reply must be exactly the bytes asked for. It is received into a
	// pooled staging buffer and copied to dst only once the whole frame has
	// arrived, so a mid-transfer connection loss surfaces as an error with
	// dst untouched — the transport-level half of the all-or-nothing
	// contract — at the price of one memmove.
	want := uint32(8 * total)
	err = t.roundTrip(target, msgGet, req, t.cfg.RequestTimeout, reply{typ: msgData, min: want, max: want,
		read: func(r io.Reader, n uint32) error {
			buf := t.getStage(int(n))
			defer t.stage.Put(buf)
			if _, err := io.ReadFull(r, *buf); err != nil {
				return err
			}
			copy(floatBytes(dst[:total]), *buf)
			return nil
		}})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// getStage returns a staging buffer of length n from the pool. A pooled
// buffer that is too small is dropped for a new one, so the pool converges
// on the largest replies in flight.
func (t *Transport) getStage(n int) *[]byte {
	if buf, _ := t.stage.Get().(*[]byte); buf != nil && cap(*buf) >= n {
		*buf = (*buf)[:n]
		return buf
	}
	buf := make([]byte, n)
	return &buf
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
	// The reply is a present flag plus the deposit. Its size is the peer's
	// to say (bounded by maxFrame); it is read straight into the slice this
	// call returns, which nobody else can observe until it does.
	var out []float64
	err := t.roundTrip(from, msgCollect, nil, t.cfg.RequestTimeout, reply{typ: msgCollectData, min: 1, max: 1 + maxFrame,
		read: func(r io.Reader, n uint32) error {
			var present [1]byte
			if _, err := io.ReadFull(r, present[:]); err != nil {
				return err
			}
			n--
			if present[0] == 0 && n == 0 {
				return nil // peer had nothing deposited
			}
			if present[0] != 1 || n%8 != 0 {
				return fmt.Errorf("tcp: malformed collect response (flag %d, %d payload bytes)", present[0], n)
			}
			data := make([]float64, n/8)
			if _, err := io.ReadFull(r, floatBytes(data)); err != nil {
				return err
			}
			out = data
			return nil
		}})
	if err != nil {
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
	binary.BigEndian.PutUint64(buf[:], seq)
	return t.roundTrip(0, msgBarrier, buf[:], t.cfg.BarrierTimeout, reply{typ: msgRelease})
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
	msg := cause.Error()
	if len(msg) > maxErrPayload {
		msg = msg[:maxErrPayload]
	}
	for peer := 0; peer < t.p; peer++ {
		if peer == t.cfg.Rank {
			continue
		}
		go func(peer int) {
			if err := t.roundTrip(peer, msgAbort, []byte(msg), t.cfg.RequestTimeout, reply{typ: msgAbortAck}); err != nil {
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
	_, err := exchange(c, msgHello, helloPayload(t.p, t.cfg.Rank, t.cfg.Digest), reply{typ: msgHelloOK})
	return err
}

// roundTrip sends one request frame to peer on a pooled connection and
// consumes the single response as want describes (an ERR response is decoded
// into an error). The connection returns to the pool only after a complete,
// well-formed exchange; anything else closes it.
func (t *Transport) roundTrip(peer int, typ uint8, payload []byte, timeout time.Duration, want reply) error {
	c, err := t.getConn(peer)
	if err != nil {
		return err
	}
	c.SetDeadline(time.Now().Add(timeout))
	broken, err := exchange(c, typ, payload, want)
	if broken {
		c.Close()
		return fmt.Errorf("tcp: rank %d: %w", peer, err)
	}
	c.SetDeadline(time.Time{})
	t.putConn(peer, c)
	// A peer answering "aborted" means the cluster is going down: record it
	// locally so our own loops stop promptly too.
	if errors.Is(err, cluster.ErrAborted) && t.AbortErr() == nil {
		t.abortRemote(err.Error())
	}
	return err
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

// session is the serving side of one accepted connection: the buffered
// reader its requests arrive through (a ~70-byte GET is one read, header
// and payload together) and the scratch that lets request after request be
// decoded and answered without per-frame allocation. Its serveConn
// goroutine is the only user.
type session struct {
	t    *Transport
	c    net.Conn
	br   *bufio.Reader
	peer int

	req     []byte           // request payload, grown on demand within requestBounds
	regions []cluster.Region // parseGet scratch
	hdr     [hdrLen + 1]byte // reply header, plus COLLECT_DATA's present flag
	vecs    [][]byte         // backing array of bufs
	bufs    net.Buffers      // reply being written; WriteTo consumes it
}

func (t *Transport) serveConn(c net.Conn) {
	defer func() {
		t.connMu.Lock()
		delete(t.conns, c)
		t.connMu.Unlock()
		c.Close()
	}()
	s := &session{t: t, c: c, br: bufio.NewReader(c)}
	// First frame must be a valid handshake. Until it is, the peer is
	// anyone who can reach the port, so a length prefix beyond a HELLO's
	// closes the connection before any payload buffer exists.
	typ, payload, err := readFrameMax(s.br, helloLen)
	if err != nil {
		return
	}
	if typ != msgHello {
		respondErr(c, fmt.Errorf("tcp: expected hello, got frame type %d", typ))
		return
	}
	s.peer, err = parseHello(payload, t.p, t.cfg.Digest)
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
		typ, n, err := readHeader(s.br)
		if err != nil {
			return // connection closed by peer (normal at shutdown)
		}
		// A frame that is not a request, or claims a length its type cannot
		// have, closes the connection before any buffer is sized from it.
		if min, max, ok := requestBounds(typ); !ok || n < min || n > max {
			if l := t.logger(); l != nil {
				l.Warn("closing connection on out-of-bounds frame", "peer", s.peer, "type", typ, "len", n)
			}
			return
		}
		if uint32(cap(s.req)) < n {
			s.req = make([]byte, n)
		}
		s.req = s.req[:n]
		if _, err := io.ReadFull(s.br, s.req); err != nil {
			return
		}
		if err := s.serveRequest(typ, s.req); err != nil {
			return
		}
	}
}

// serveRequest answers one request frame, whose length requestBounds has
// already vetted; a non-nil return closes the conn.
func (s *session) serveRequest(typ uint8, payload []byte) error {
	t, c := s.t, s.c
	switch typ {
	case msgGet:
		name, regions, err := parseGet(payload, s.regions)
		if err != nil {
			return respondErr(c, err)
		}
		s.regions = regions
		if aerr := t.AbortErr(); aerr != nil {
			return respondErr(c, aerr)
		}
		t.mu.RLock()
		w, ok := t.windows[name]
		t.mu.RUnlock()
		if !ok {
			return respondErr(c, fmt.Errorf("cluster: rank %d: no window %q exposed by rank %d: %w",
				s.peer, name, t.cfg.Rank, cluster.ErrWindowMissing))
		}
		// The requester checked its own dst; here only the window bounds.
		total, err := cluster.CheckRegions(s.peer, t.cfg.Rank, name, regions, len(w), math.MaxInt)
		if err != nil {
			return respondErr(c, err)
		}
		if total > maxFrame/8 {
			return respondErr(c, fmt.Errorf("tcp: get of %d elements exceeds the frame limit of %d bytes", total, maxFrame))
		}
		// DATA is the header plus the window's own memory, region by region.
		putHeader(s.hdr[:], msgData, int(8*total))
		s.vecs = append(s.vecs[:0], s.hdr[:hdrLen])
		for _, reg := range regions {
			if reg.Elems > 0 {
				s.vecs = append(s.vecs, floatBytes(w[reg.Off:reg.Off+reg.Elems]))
			}
		}
		return s.writeVecs()

	case msgCollect:
		t.mu.RLock()
		d := t.staging
		t.mu.RUnlock()
		if d == nil {
			return writeFrame(c, msgCollectData, []byte{0})
		}
		if len(d) > maxFrame/8 {
			return respondErr(c, fmt.Errorf("tcp: deposit of %d elements exceeds the frame limit of %d bytes", len(d), maxFrame))
		}
		putHeader(s.hdr[:], msgCollectData, 1+8*len(d))
		s.hdr[hdrLen] = 1
		s.vecs = append(s.vecs[:0], s.hdr[:], floatBytes(d))
		return s.writeVecs()

	case msgBarrier:
		if t.coord == nil {
			return respondErr(c, fmt.Errorf("tcp: rank %d is not the barrier coordinator", t.cfg.Rank))
		}
		// Register the waiter and keep reading: the release frame is written
		// by whichever goroutine completes the barrier (the peer holds this
		// connection out of its pool until the response lands, so no other
		// frame competes for the writer side).
		t.coord.enterRemote(binary.BigEndian.Uint64(payload), c)
		return nil

	case msgAbort:
		t.abortRemote(string(payload))
		return writeFrame(c, msgAbortAck, nil)

	default:
		return fmt.Errorf("tcp: request type %d passed requestBounds but has no handler", typ)
	}
}

// writeVecs sends the frame assembled in s.vecs with one writev. WriteTo
// consumes s.bufs and nils the entries of s.vecs as it goes, so no view of
// a window outlives the write.
func (s *session) writeVecs() error {
	s.bufs = s.vecs
	_, err := s.bufs.WriteTo(s.c)
	return err
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

// Package tcp is the multi-process wall-clock backend of the
// cluster.Transport seam: each rank is an OS process, peers connect over
// length-prefixed TCP framing, and the rank ledger measures real elapsed
// time instead of accumulating modeled virtual seconds.
//
// Wire format. Every message is one frame:
//
//	uint32 payload length (big-endian) | uint8 type | payload
//
// A connection starts with a handshake: the dialer sends HELLO carrying the
// protocol magic and version, the cluster size, its own rank, and the
// workload digest (a caller-chosen fingerprint of matrix/plan/config); the
// accepter answers HELLO_OK or ERR and closes. The handshake is what turns
// "two processes happened to dial each other" into "two ranks of the same
// run": any mismatch — different binary version, different cluster size,
// different matrix — fails fast at connect time instead of corrupting C at
// row one.
//
// After the handshake the dialer owns the connection and issues requests
// (GET, COLLECT, BARRIER, ABORT); the accepter answers each with exactly one
// response frame (DATA, COLLECT_DATA, RELEASE, ABORT_ACK, or ERR).
// Float64 payloads travel as their IEEE-754 bit patterns, little-endian, so
// a byte moved over the wire is bit-identical to one copied through the
// simulator's shared memory.
//
// Cost of a frame. A frame leaves in one write: header and payload are
// handed to the kernel together (one buffer for small frames, writev for
// the rest). Float payloads are never converted and never get a buffer of
// their own on the sending side: on a little-endian host the memory of a
// []float64 already is its wire encoding (floatBytes), so a DATA frame is
// the header plus the requested regions of the exposed window itself. New
// refuses big-endian hosts rather than keep a second, converting codec.
//
// Bounds. Every frame is checked against what its type can legitimately
// carry as soon as its 5-byte header is read and before any buffer is sized
// from it (requestBounds for the serving side, reply for the requesting
// side); a frame outside its bound closes the connection.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"unsafe"

	"twoface/internal/cluster"
)

const (
	// Magic and ProtocolVersion gate the handshake. Bump the version on any
	// wire-format change.
	Magic           = 0x54463246 // "TF2F"
	ProtocolVersion = 1

	hdrLen = 5

	// maxFrame bounds the float payload of one DATA or COLLECT_DATA frame,
	// sized above any window this repository moves (a dense B block of 10^7
	// rows x 128 cols is ~1 GiB; transfers here are per-stripe, orders of
	// magnitude smaller). A requester never asks for more, and a DATA reply
	// must be exactly the size asked for.
	maxFrame = 1 << 30

	// helloLen is the exact size of a HELLO payload, and the most a server
	// will buffer from a connection that has not completed the handshake.
	helloLen = 4 + 2 + 4 + 4 + 8

	// maxErrPayload bounds an ERR or ABORT payload: a code byte and a
	// message. Senders truncate to it, receivers close on anything longer.
	maxErrPayload = 64 << 10

	// maxRegions bounds the region list of one GET. A region moves at least
	// one 8-byte element, so the executor's default 1 MiB batch cap
	// (core.Params.MaxBatchBytes) can produce at most 1<<17 regions; this
	// leaves room for an 8x larger cap and keeps the largest request a
	// server will buffer at ~16 MiB.
	maxRegions = 1 << 20

	// maxGetPayload is the largest legitimate GET payload: name length,
	// the longest name a uint16 can describe, region count, regions.
	maxGetPayload = 2 + 65535 + 4 + 16*maxRegions

	// smallFrame is the size (header included) up to which a frame is
	// assembled in one buffer and sent with a plain write; larger frames go
	// out as header + payload through writev.
	smallFrame = 256
)

// Frame types.
const (
	msgHello       = 1
	msgHelloOK     = 2
	msgGet         = 3
	msgData        = 4
	msgCollect     = 5
	msgCollectData = 6
	msgBarrier     = 7
	msgRelease     = 8
	msgAbort       = 9
	msgAbortAck    = 10
	msgErr         = 127
)

// Error codes carried by msgErr frames, mapping the cluster's typed
// sentinels across the wire so errors.Is keeps working on the requester.
const (
	codeGeneric       = 1
	codeWindowMissing = 2
	codeRegionOOB     = 3
	codeDstTooSmall   = 4
	codeAborted       = 5
)

// errToCode maps an error to its wire code.
func errToCode(err error) uint8 {
	switch {
	case errors.Is(err, cluster.ErrWindowMissing):
		return codeWindowMissing
	case errors.Is(err, cluster.ErrRegionOOB):
		return codeRegionOOB
	case errors.Is(err, cluster.ErrDstTooSmall):
		return codeDstTooSmall
	case errors.Is(err, cluster.ErrAborted):
		return codeAborted
	default:
		return codeGeneric
	}
}

// codeToErr rebuilds a sentinel-wrapping error from a wire code and message.
func codeToErr(code uint8, msg string) error {
	switch code {
	case codeWindowMissing:
		return fmt.Errorf("%s: %w", msg, cluster.ErrWindowMissing)
	case codeRegionOOB:
		return fmt.Errorf("%s: %w", msg, cluster.ErrRegionOOB)
	case codeDstTooSmall:
		return fmt.Errorf("%s: %w", msg, cluster.ErrDstTooSmall)
	case codeAborted:
		return cluster.NewAbortError(errors.New(msg))
	default:
		return errors.New(msg)
	}
}

// floatBytes returns the memory of v viewed as bytes — on a little-endian
// host (the only kind New accepts) exactly the wire encoding of v, so
// sending it or reading into it moves floats without a conversion pass or
// a second buffer. The view is sound because a byte slice has no alignment
// requirement, it keeps v's backing array alive, and the slices it is taken
// of do not change underneath it: an exposed window is immutable for its
// exposure epoch (cluster.Transport.Expose), a deposit until its collective
// completes, and a requester's dst or a fresh Collect result is written
// only by the read that holds the view.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// checkByteOrder reports an error unless native, the host's byte order, is
// the wire's little-endian one, which is what makes floatBytes a codec.
func checkByteOrder(native binary.ByteOrder) error {
	if native.Uint16([]byte{1, 0}) != 1 {
		return errors.New("tcp: big-endian host: float64 payloads are sent from memory in little-endian order, which this host's memory is not")
	}
	return nil
}

func putHeader(hdr []byte, typ uint8, payloadLen int) {
	binary.BigEndian.PutUint32(hdr, uint32(payloadLen))
	hdr[4] = typ
}

// writeFrame sends one frame — length prefix, type byte, payload — in one
// write, so a frame costs one syscall and never sits half-sent behind
// TCP_NODELAY.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("tcp: frame payload %d exceeds limit %d", len(payload), maxFrame)
	}
	var buf [smallFrame]byte
	putHeader(buf[:], typ, len(payload))
	if hdrLen+len(payload) <= len(buf) {
		n := copy(buf[hdrLen:], payload)
		_, err := w.Write(buf[:hdrLen+n])
		return err
	}
	bufs := net.Buffers{buf[:hdrLen], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readHeader reads a frame header: the type and the payload length the
// sender claims. The caller bounds that claim before reading the payload.
func readHeader(r io.Reader) (typ uint8, n uint32, err error) {
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	return hdr[4], binary.BigEndian.Uint32(hdr[:4]), nil
}

// readFrameMax reads one frame whose payload may be at most max bytes,
// checked before anything is allocated for the payload.
func readFrameMax(r io.Reader, max uint32) (uint8, []byte, error) {
	typ, n, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if n > max {
		return 0, nil, fmt.Errorf("tcp: frame length %d exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// requestBounds returns the payload lengths a request of the given type can
// legitimately have; ok is false for a type that is not a request.
func requestBounds(typ uint8) (min, max uint32, ok bool) {
	switch typ {
	case msgGet:
		return 2 + 4, maxGetPayload, true
	case msgCollect:
		return 0, 0, true
	case msgBarrier:
		return 8, 8, true
	case msgAbort:
		return 0, maxErrPayload, true
	default:
		return 0, 0, false
	}
}

// reply describes the one frame a request may be answered with besides ERR:
// its type, the payload lengths that are legitimate for this particular
// request, and how to consume the payload.
type reply struct {
	typ      uint8
	min, max uint32
	// read consumes exactly n payload bytes from r; nil when max is 0. It
	// runs only after type and length have been checked, so it may size
	// buffers from n.
	read func(r io.Reader, n uint32) error
}

// exchange writes one request frame on c and reads its single reply. An ERR
// reply is a complete, well-formed answer: it comes back as the decoded
// error with broken false, and c can carry the next request. An I/O failure
// or a reply outside want's bounds leaves the stream position unknown:
// broken is true and the caller must close c.
func exchange(c net.Conn, typ uint8, payload []byte, want reply) (broken bool, err error) {
	if err := writeFrame(c, typ, payload); err != nil {
		return true, fmt.Errorf("request: %w", err)
	}
	respTyp, n, err := readHeader(c)
	if err != nil {
		return true, fmt.Errorf("response: %w", err)
	}
	switch {
	case respTyp == want.typ && n >= want.min && n <= want.max:
		if n > 0 {
			if err := want.read(c, n); err != nil {
				return true, fmt.Errorf("response: %w", err)
			}
		}
		return false, nil
	case respTyp == msgErr && n <= maxErrPayload:
		body := make([]byte, n)
		if _, err := io.ReadFull(c, body); err != nil {
			return true, fmt.Errorf("response: %w", err)
		}
		return false, parseErr(body)
	default:
		return true, fmt.Errorf("response: frame type %d with %d payload bytes, want type %d with %d..%d",
			respTyp, n, want.typ, want.min, want.max)
	}
}

// helloPayload encodes the handshake.
func helloPayload(p, rank int, digest uint64) []byte {
	b := make([]byte, helloLen)
	binary.BigEndian.PutUint32(b[0:], Magic)
	binary.BigEndian.PutUint16(b[4:], ProtocolVersion)
	binary.BigEndian.PutUint32(b[6:], uint32(p))
	binary.BigEndian.PutUint32(b[10:], uint32(rank))
	binary.BigEndian.PutUint64(b[14:], digest)
	return b
}

// parseHello decodes and validates a HELLO payload against local expectations.
func parseHello(b []byte, p int, digest uint64) (peerRank int, err error) {
	if len(b) != helloLen {
		return 0, fmt.Errorf("tcp: malformed hello (%d bytes)", len(b))
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != Magic {
		return 0, fmt.Errorf("tcp: bad magic %#x (not a twoface peer?)", m)
	}
	if v := binary.BigEndian.Uint16(b[4:]); v != ProtocolVersion {
		return 0, fmt.Errorf("tcp: protocol version mismatch: peer %d, local %d", v, ProtocolVersion)
	}
	if pp := int(binary.BigEndian.Uint32(b[6:])); pp != p {
		return 0, fmt.Errorf("tcp: cluster size mismatch: peer says %d ranks, local %d", pp, p)
	}
	rank := int(binary.BigEndian.Uint32(b[10:]))
	if rank < 0 || rank >= p {
		return 0, fmt.Errorf("tcp: peer rank %d out of range [0,%d)", rank, p)
	}
	if d := binary.BigEndian.Uint64(b[14:]); d != digest {
		return 0, fmt.Errorf("tcp: workload digest mismatch: peer %#x, local %#x (different matrix/plan/config?)", d, digest)
	}
	return rank, nil
}

// getPayload encodes a GET request: window name + region list. It refuses
// what the format cannot describe or a server would not accept.
func getPayload(name string, regions []cluster.Region) ([]byte, error) {
	if len(name) > 65535 {
		return nil, fmt.Errorf("tcp: window name of %d bytes exceeds the wire limit of 65535", len(name))
	}
	if len(regions) > maxRegions {
		return nil, fmt.Errorf("tcp: get of %d regions exceeds the wire limit of %d", len(regions), maxRegions)
	}
	b := make([]byte, 0, 2+len(name)+4+16*len(regions))
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(regions)))
	for _, reg := range regions {
		b = binary.BigEndian.AppendUint64(b, uint64(reg.Off))
		b = binary.BigEndian.AppendUint64(b, uint64(reg.Elems))
	}
	return b, nil
}

// parseGet decodes a GET request payload. The regions are appended to
// scratch[:0], so a serving loop decodes request after request into one
// region list. A region whose end overflows int64 is malformed here, because
// the bounds check downstream (cluster.CheckRegions) compares that end
// against the window length.
func parseGet(b []byte, scratch []cluster.Region) (name string, regions []cluster.Region, err error) {
	if len(b) < 2 {
		return "", nil, errors.New("tcp: short get payload")
	}
	nameLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < nameLen+4 {
		return "", nil, errors.New("tcp: short get payload")
	}
	name = string(b[:nameLen])
	b = b[nameLen:]
	nRegions := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) != 16*uint64(nRegions) {
		return "", nil, fmt.Errorf("tcp: get payload region count mismatch (%d regions, %d bytes)", nRegions, len(b))
	}
	regions = scratch[:0]
	for ; len(b) > 0; b = b[16:] {
		reg := cluster.Region{
			Off:   int64(binary.BigEndian.Uint64(b)),
			Elems: int64(binary.BigEndian.Uint64(b[8:])),
		}
		if reg.Off > 0 && reg.Elems > 0 && reg.Off+reg.Elems < 0 {
			return "", nil, fmt.Errorf("tcp: get region [%d,+%d) overflows", reg.Off, reg.Elems)
		}
		regions = append(regions, reg)
	}
	return name, regions, nil
}

// errPayload encodes an ERR frame payload, truncating the message to the
// bound receivers enforce.
func errPayload(err error) []byte {
	msg := err.Error()
	if len(msg) > maxErrPayload-1 {
		msg = msg[:maxErrPayload-1]
	}
	b := make([]byte, 0, 1+len(msg))
	b = append(b, errToCode(err))
	b = append(b, msg...)
	return b
}

// parseErr decodes an ERR frame payload back into an error.
func parseErr(b []byte) error {
	if len(b) < 1 {
		return errors.New("tcp: malformed error frame")
	}
	return codeToErr(b[0], string(b[1:]))
}

// respondErr sends an ERR frame; used by the accepter side.
func respondErr(c net.Conn, err error) error {
	return writeFrame(c, msgErr, errPayload(err))
}

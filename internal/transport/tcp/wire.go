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
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"twoface/internal/cluster"
)

const (
	// Magic and ProtocolVersion gate the handshake. Bump the version on any
	// wire-format change.
	Magic           = 0x54463246 // "TF2F"
	ProtocolVersion = 1

	// maxFrame bounds a frame payload: a defense against a corrupted or
	// malicious length prefix, sized above any window this repository moves
	// (a dense B block of 10^7 rows x 128 cols is ~1 GiB; transfers here
	// are per-stripe, orders of magnitude smaller).
	maxFrame = 1 << 30

	// helloLen is the exact size of a HELLO payload, and the most a server
	// will buffer from a connection that has not completed the handshake.
	helloLen = 4 + 2 + 4 + 4 + 8
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

// writeFrame sends one frame: length prefix, type byte, payload.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("tcp: frame payload %d exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, returning its type and payload.
func readFrame(r io.Reader) (uint8, []byte, error) {
	return readFrameMax(r, maxFrame)
}

// readFrameMax is readFrame with a caller-chosen payload bound, checked
// before anything is allocated for the payload.
func readFrameMax(r io.Reader, max uint32) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > max {
		return 0, nil, fmt.Errorf("tcp: frame length %d exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
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

// getPayload encodes a GET request: window name + region list.
func getPayload(name string, regions []cluster.Region) []byte {
	b := make([]byte, 0, 2+len(name)+4+16*len(regions))
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(regions)))
	for _, reg := range regions {
		b = binary.BigEndian.AppendUint64(b, uint64(reg.Off))
		b = binary.BigEndian.AppendUint64(b, uint64(reg.Elems))
	}
	return b
}

// parseGet decodes a GET request payload.
func parseGet(b []byte) (name string, regions []cluster.Region, err error) {
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
	nRegions := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) != 16*nRegions {
		return "", nil, fmt.Errorf("tcp: get payload region count mismatch (%d regions, %d bytes)", nRegions, len(b))
	}
	regions = make([]cluster.Region, nRegions)
	for i := range regions {
		regions[i].Off = int64(binary.BigEndian.Uint64(b[16*i:]))
		regions[i].Elems = int64(binary.BigEndian.Uint64(b[16*i+8:]))
	}
	return name, regions, nil
}

// encodeFloats appends the IEEE-754 bit patterns of vals, little-endian.
func encodeFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloats unpacks a little-endian float64 payload into dst.
func decodeFloats(b []byte, dst []float64) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("tcp: float payload is %d bytes, want %d", len(b), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// errPayload encodes an ERR frame payload.
func errPayload(err error) []byte {
	msg := err.Error()
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

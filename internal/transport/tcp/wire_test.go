package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"twoface/internal/cluster"
)

// awkwardFloats are values a converting codec could plausibly mangle: the
// byte view must carry every one of them bit for bit.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, math.Pi,
	math.MaxFloat64, math.SmallestNonzeroFloat64, // largest finite, smallest denormal
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8_dead_beef_0001), // NaN with a payload
	math.Float64frombits(0x0102_0304_0506_0708), // every byte distinct
}

// The byte view is the codec: on every host New accepts, floatBytes(v) is
// the little-endian Float64bits encoding the protocol specifies, in both
// directions.
func TestFloatBytesIsTheWireEncoding(t *testing.T) {
	if err := checkByteOrder(binary.NativeEndian); err != nil {
		t.Skipf("host refused by New: %v", err)
	}
	var want []byte
	for _, v := range awkwardFloats {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	if got := floatBytes(awkwardFloats); !bytes.Equal(got, want) {
		t.Fatalf("floatBytes = %x\nwant        %x", got, want)
	}
	back := make([]float64, len(awkwardFloats))
	copy(floatBytes(back), want)
	for i, v := range awkwardFloats {
		if math.Float64bits(back[i]) != math.Float64bits(v) {
			t.Fatalf("element %d: read back %#x, want %#x", i, math.Float64bits(back[i]), math.Float64bits(v))
		}
	}
	if b := floatBytes(nil); len(b) != 0 {
		t.Fatalf("floatBytes(nil) has %d bytes", len(b))
	}
}

func TestByteOrderProbe(t *testing.T) {
	if err := checkByteOrder(binary.LittleEndian); err != nil {
		t.Fatalf("little-endian host refused: %v", err)
	}
	if err := checkByteOrder(binary.BigEndian); err == nil || !strings.Contains(err.Error(), "big-endian") {
		t.Fatalf("big-endian host accepted (err = %v)", err)
	}
}

// A small frame is one Write of header and payload together; a large one
// is a net.Buffers of exactly {header, payload} — one writev on a
// *net.TCPConn, and on this plain writer the two Writes counted here, with
// the payload never copied.
func TestWriteFrameWrites(t *testing.T) {
	for _, tc := range []struct{ size, writes int }{
		{0, 1}, {8, 1}, {smallFrame - hdrLen, 1}, {smallFrame - hdrLen + 1, 2}, {64 << 10, 2},
	} {
		payload := bytes.Repeat([]byte{0xab}, tc.size)
		var w countingWriter
		if err := writeFrame(&w, msgData, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != tc.writes {
			t.Fatalf("%d-byte payload: %d writes, want %d", tc.size, w.writes, tc.writes)
		}
		typ, got, err := readFrameMax(&w.buf, uint32(tc.size))
		if err != nil || typ != msgData || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload did not round-trip: typ=%d err=%v", tc.size, typ, err)
		}
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

func TestRequestBounds(t *testing.T) {
	for _, tc := range []struct {
		typ      uint8
		min, max uint32
		ok       bool
	}{
		{msgGet, 6, 2 + 65535 + 4 + 16*maxRegions, true},
		{msgCollect, 0, 0, true},
		{msgBarrier, 8, 8, true},
		{msgAbort, 0, 64 << 10, true},
		{msgHello, 0, 0, false}, // only ever a connection's first frame
		{msgData, 0, 0, false},  // a response is not a request
		{msgErr, 0, 0, false},
		{99, 0, 0, false},
	} {
		min, max, ok := requestBounds(tc.typ)
		if min != tc.min || max != tc.max || ok != tc.ok {
			t.Errorf("requestBounds(%d) = %d, %d, %v; want %d, %d, %v", tc.typ, min, max, ok, tc.min, tc.max, tc.ok)
		}
	}
}

var getCases = []struct {
	name    string
	regions []cluster.Region
}{
	{"B", []cluster.Region{{Off: 2, Elems: 2}, {Off: 6, Elems: 2}}},
	{"", nil},
	{"scratch", []cluster.Region{{Off: 0, Elems: 0}}},
	{strings.Repeat("n", 65535), []cluster.Region{{Off: math.MaxInt64 - 1, Elems: 1}}},
	{"neg", []cluster.Region{{Off: -1, Elems: 2}, {Off: 3, Elems: -4}}}, // rejected downstream, not by the codec
}

func TestGetPayloadRoundTrip(t *testing.T) {
	for _, tc := range getCases {
		b, err := getPayload(tc.name, tc.regions)
		if err != nil {
			t.Fatal(err)
		}
		name, regions, err := parseGet(b, nil)
		if err != nil || name != tc.name || len(regions) != len(tc.regions) {
			t.Fatalf("%.10q: parsed name %.10q, %d regions, err %v", tc.name, name, len(regions), err)
		}
		for i, reg := range regions {
			if reg != tc.regions[i] {
				t.Fatalf("%.10q: region %d = %+v, want %+v", tc.name, i, reg, tc.regions[i])
			}
		}
	}
}

func TestGetPayloadRefusesWhatTheWireCannotSay(t *testing.T) {
	// A uint16 length cannot describe this name; it used to be truncated.
	if _, err := getPayload(strings.Repeat("n", 65536), nil); err == nil {
		t.Fatal("65536-byte window name accepted")
	}
	if _, err := getPayload("B", make([]cluster.Region, maxRegions+1)); err == nil {
		t.Fatal("region list beyond maxRegions accepted")
	}
}

// cluster.CheckRegions compares Off+Elems with the window length, so a
// region whose end wraps negative must die in the parser.
func TestParseGetRejectsOverflowingRegion(t *testing.T) {
	b, err := getPayload("B", []cluster.Region{{Off: math.MaxInt64, Elems: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseGet(b, nil); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflowing region parsed (err = %v)", err)
	}
}

func TestErrPayloadKeepsSentinelsAndBound(t *testing.T) {
	for _, sentinel := range []error{cluster.ErrWindowMissing, cluster.ErrRegionOOB, cluster.ErrDstTooSmall, cluster.ErrAborted} {
		if got := parseErr(errPayload(sentinel)); !errors.Is(got, sentinel) {
			t.Errorf("%v came back as %v", sentinel, got)
		}
	}
	long := errors.New(strings.Repeat("x", 2*maxErrPayload))
	if b := errPayload(long); len(b) != maxErrPayload {
		t.Fatalf("oversized message encoded to %d bytes, want the %d-byte bound", len(b), maxErrPayload)
	}
}

func FuzzParseHello(f *testing.F) {
	const p, digest = 4, 0xC0FFEE
	f.Add(helloPayload(p, 2, digest))
	f.Add(helloPayload(p, 9, digest))   // rank out of range
	f.Add(helloPayload(p+1, 0, digest)) // cluster size mismatch
	f.Add(helloPayload(p, 0, digest+1)) // digest mismatch
	bad := helloPayload(p, 0, digest)
	bad[0] = 0xde // TestBadMagicRejected's frame
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rank, err := parseHello(b, p, digest)
		if err != nil {
			return
		}
		// Accepted means canonical: exactly the HELLO this cluster's rank sends.
		if rank < 0 || rank >= p || !bytes.Equal(b, helloPayload(p, rank, digest)) {
			t.Fatalf("accepted %x as rank %d", b, rank)
		}
	})
}

func FuzzParseGet(f *testing.F) {
	for _, tc := range getCases {
		if len(tc.name) > 64 {
			continue // keep the corpus small; the long name is TestGetPayloadRoundTrip's
		}
		b, err := getPayload(tc.name, tc.regions)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated
	}
	overflow, _ := getPayload("B", []cluster.Region{{Off: math.MaxInt64, Elems: 1}})
	f.Add(overflow)
	f.Add([]byte{0, 1, 'B', 0xff, 0xff, 0xff, 0xff}) // claims 2^32-1 regions, carries none
	f.Fuzz(func(t *testing.T, b []byte) {
		scratch := make([]cluster.Region, 0, 2)
		name, regions, err := parseGet(b, scratch)
		if err != nil {
			return
		}
		for _, reg := range regions {
			if reg.Off > 0 && reg.Elems > 0 && reg.Off+reg.Elems < 0 {
				t.Fatalf("region %+v overflows", reg)
			}
		}
		// The encoding is canonical, so what parses re-encodes to itself —
		// which also bounds the decoded size by the input's.
		again, err := getPayload(name, regions)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("parsed %x, re-encoded %x (err %v)", b, again, err)
		}
	})
}

func FuzzParseErr(f *testing.F) {
	for _, err := range []error{cluster.ErrWindowMissing, cluster.ErrRegionOOB, cluster.ErrDstTooSmall, cluster.ErrAborted, errors.New("boom")} {
		f.Add(errPayload(err))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, b []byte) {
		err := parseErr(b)
		if err == nil {
			t.Fatalf("ERR payload %x decoded to a nil error", b)
		}
		if len(b) == 0 {
			return
		}
		for code, sentinel := range map[uint8]error{
			codeWindowMissing: cluster.ErrWindowMissing,
			codeRegionOOB:     cluster.ErrRegionOOB,
			codeDstTooSmall:   cluster.ErrDstTooSmall,
			codeAborted:       cluster.ErrAborted,
		} {
			if errors.Is(err, sentinel) != (b[0] == code) {
				t.Fatalf("code %d decoded to %v (sentinel %v)", b[0], err, sentinel)
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	const bound = 64
	frame := func(typ uint8, n uint32, payload []byte) []byte {
		return append(header(typ, n), payload...)
	}
	f.Add(frame(msgHello, helloLen, helloPayload(1, 0, 7)))
	f.Add(frame(msgHelloOK, 0, nil))
	f.Add(frame(msgHello, maxFrame, nil))                   // TestOversizedFirstFrameClosedWithoutAllocating's header
	f.Add(frame(msgGet, bound+1, make([]byte, bound+1)))    // one past the bound
	f.Add(frame(msgData, bound, make([]byte, bound-1)))     // short payload
	f.Add(frame(msgErr, 5, errPayload(errors.New("boom")))) // trailing bytes after the frame
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readFrameMax(bytes.NewReader(b), bound)
		if cap(payload) > bound {
			t.Fatalf("payload buffer of %d bytes under a bound of %d", cap(payload), bound)
		}
		// A frame is a frame however the bytes trickle in.
		typ1, payload1, err1 := readFrameMax(iotest.OneByteReader(bytes.NewReader(b)), bound)
		if typ1 != typ || !bytes.Equal(payload1, payload) || (err1 == nil) != (err == nil) {
			t.Fatalf("one byte at a time: typ %d payload %x err %v; at once: typ %d payload %x err %v",
				typ1, payload1, err1, typ, payload, err)
		}
		if err != nil {
			return
		}
		n := binary.BigEndian.Uint32(b)
		if typ != b[4] || n > bound || !bytes.Equal(payload, b[hdrLen:hdrLen+int(n)]) {
			t.Fatalf("frame %x read as typ %d payload %x", b, typ, payload)
		}
	})
}

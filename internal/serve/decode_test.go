package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"twoface"
)

// fuzzPlans holds one resident, "p", with a 4-element operand (2 columns,
// K = 2), so that mutated bodies reach the exact-length accept path often.
var (
	fuzzPlansOnce sync.Once
	fuzzPlans     *Registry
)

func fuzzRegistry(tb testing.TB) *Registry {
	tb.Helper()
	fuzzPlansOnce.Do(func() {
		a := twoface.NewSparse(2, 2)
		a.Append(0, 1, 2)
		a.Append(1, 0, 3)
		sys, err := twoface.New(twoface.Options{Nodes: 1, DenseColumns: 2})
		if err != nil {
			panic(err)
		}
		plan, err := sys.Preprocess(a)
		if err != nil {
			panic(err)
		}
		fuzzPlans = NewRegistry()
		if err := fuzzPlans.Add(&Resident{Name: "p", Plan: plan, K: 2}); err != nil {
			panic(err)
		}
	})
	return fuzzPlans
}

// oracleDecode is the JSON decoder the scanner replaced: encoding/json over
// the whole body, then the plan and its operand length checked after
// decoding. It adjusts for the scanner's two deliberate differences, which
// FuzzDecodeMultiplyRequest names.
func oracleDecode(raw []byte, plans *Registry) (MultiplyRequest, bool) {
	var req MultiplyRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&req); err != nil {
		return req, false
	}
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) > 0 {
		return req, false // difference 1: trailing bytes
	}
	res := plans.Get(req.Plan)
	if res == nil {
		return req, false
	}
	if req.B != nil && len(req.B) != res.Plan.NumCols()*res.K {
		return req, false
	}
	if last, members := lastOperandMember(raw); members > 1 {
		// Difference 2: the last "b" decoded on its own.
		req.B = nil
		if err := json.Unmarshal(last, &req.B); err != nil {
			panic(fmt.Sprintf("oracle accepted %q but not its last b member: %v", raw, err))
		}
	}
	return req, true
}

// lastOperandMember returns the raw value of the last top-level member
// whose name encoding/json matches to MultiplyRequest.B, and how many such
// members the object has. Call it only on a body the oracle decoded.
func lastOperandMember(raw []byte) (json.RawMessage, int) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		return nil, 0
	}
	var last json.RawMessage
	members := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, 0
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, 0
		}
		if key, _ := tok.(string); strings.EqualFold(key, "b") {
			last, members = v, members+1
		}
	}
	return last, members
}

// fuzzSeeds is the corpus FuzzDecodeMultiplyRequest starts from, and runs
// as a unit test in every go test.
var fuzzSeeds = []string{
	`{"plan":"p","seed":1}`,
	`{"plan":"p","b":[1,2,3,4]}`,
	`{"b":[1,2,3,4],"plan":"p"}`,
	`{"plan":"p","B":[1,2,3,4]}`,
	`{"plan":"p","b":[1,2,3,4]}`,
	`{"plan":"p","B":[1,2,3,4],"tenant":"t"}`,
	`{"plan":"p","b":[9,9,9,9,9],"b":[1,2,3,4]}`,
	`{"plan":"p","b":[5,6,7,8],"B":[null,2,null,4]}`,
	`{"plan":"p","b":[1,2,3,4],"b":null}`,
	`{"plan":"p","b":"x","b":[1,2,3,4]}`,
	`{"plan":"p","b":[1e400],"b":[1,2,3,4]}`,
	`{"plan":"p","b":[null,1,null,2]}`,
	`{"plan":"p","b":null,"seed":3}`,
	`{"plan":"p","b":[1e400,0,0,0]}`,
	`{"plan":"p","b":[-1e400,0,0,0]}`,
	`{"plan":"p","b":[-0,0,-0.0,0e5]}`,
	`{"plan":"p","b":[4.9e-324,2.2250738585072014e-308,5e-324,1e-400]}`,
	`{"plan":"p","b":[-1e-400,2.4703282292062327e-324,2.4703282292062328e-324,1.7976931348623157e308]}`,
	`{"plan":"p","b":[12345678901234567,1234567890123456789012345,9007199254740993,0.1234567890123456789012345]}`,
	`{"plan":"p","b":[9007199254740992,9007199254740991e3,123456789012345678e-22,1000000000000000000000000]}`,
	`{"plan":"p","b":[0.000000000000000000000001,100000000000000000000000000000e-50,1e22,1e23]}`,
	`{"plan":"p","b":[00,1,2,3]}`,
	`{"plan":"p","b":[-01,1,2,3]}`,
	`{"plan":"p","b":[01,1,2,3]}`,
	`{"plan":"p","b":[1.,1,2,3]}`,
	`{"plan":"p","b":[.5,1,2,3]}`,
	`{"plan":"p","b":[+1,1,2,3]}`,
	`{"plan":"p","b":[Infinity,1,2,3]}`,
	`{"plan":"p","b":[NaN,1,2,3]}`,
	`{"plan":"p","b":[1e,1,2,3]}`,
	`{"plan":"p","b":[1,2,3,4,]}`,
	`{"plan":"p","b":[1 2,3,4]}`,
	`{"plan":"p","b":[1,2,3,true]}`,
	`{"plan":"p","b":[1,2,3,"4"]}`,
	`{"plan":"p","b":[1,2,3,[4]]}`,
	`{"plan":"p","b":[1,2,3,"]"]}`,
	`{"plan":"p","b":[]}`,
	`{"plan":"p","b":[1,2,3]}`,
	`{"plan":"p","b":[1,2,3,4,5]}`,
	`{"plan":"p","b":{}}`,
	`{"plan"="p","b":[1,2,3,4]}`,
	`{"plan"`,
	`{"plan":"p","x":[1,2`,
	`{"plan":"q","b":[1,2,3,4]}`,
	`{"plan":"q","b":[1,,]}`,
	`{"b":[1,2,3,4]}`,
	`{"plan":"p","x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `,"seed":1}`,
	`{"plan":"p","x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `,"seed":1}`,
	`{"plan":"p","x":{"b":[1],"y":"]}\"["},"seed":1}`,
	`{"plan":"p","seed":1,"include_c":true,"hold_ms":5,"queue_timeout_ms":7,"no_coalesce":true,"tenant":"t"}`,
	`{"PLAN":"p","ſeed":1}`,
	`{"plan":"p","seed":1,"seed":null}`,
	`{"plan":"p","seed":-1}`,
	`{"plan":"p","seed":1.5}`,
	`{"plan":"p","hold_ms":"5","seed":1}`,
	`{"plan":"p","seed":1} `,
	`{"plan":"p","seed":1} x`,
	`{"plan":"p","seed":1}{}`,
	` {"plan" : "p" , "b" : [ 1 , 2 , 3 , 4 ] } `,
	`{"plan":"p`,
	`{"plan":"p","tenant":"abc`,
	`{"plan":"p","b":[1,2`,
	`{"plan":"p","b":[1,2,3,4]`,
	`{"plan":"p",}`,
	`{"plan":"p","b"}`,
	`{"plan":"p" "seed":1}`,
	`{"plan":"p\u0000","seed":1}`,
	"{\"plan\":\"p\",\"tenant\":\"\x00\",\"seed\":1}",
	"{\"plan\":\"p\",\"tenant\":\"\xff\",\"seed\":1}",
	`{}`,
	`null`,
	`[]`,
	`"p"`,
	``,
}

// FuzzDecodeMultiplyRequest holds the JSON ingress scanner to the decoder it
// replaced (oracleDecode): on every input both accept or both reject, and on
// accept every field is equal and B is equal bit for bit. The differences
// are deliberate, and DESIGN.md §13 lists them too:
//
//  1. Bytes other than whitespace after the request object: encoding/json's
//     Decoder stops at the object's end and never reads them; the scanner
//     refuses the body.
//  2. A null element in a "b" member that repeats an earlier one:
//     encoding/json decodes the later member into the earlier member's
//     slice, so its null leaves the earlier element in place; the scanner
//     parses the last member alone, and the null is 0.
//
// A status differs without changing accept or reject: with an unknown plan,
// a malformed "b" is 404 here and 400 there, as the plan resolves first.
func FuzzDecodeMultiplyRequest(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	plans := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, res, err := decodeJSONRequest(raw, plans)
		want, ok := oracleDecode(raw, plans)
		if (err == nil) != ok {
			t.Fatalf("%q: scanner error %v, oracle accepts %v", raw, err, ok)
		}
		if !ok {
			return
		}
		if res != plans.Get(want.Plan) {
			t.Fatalf("%q: resolved %v, want plan %q", raw, res, want.Plan)
		}
		if len(got.B) != len(want.B) || (got.B == nil) != (want.B == nil) {
			t.Fatalf("%q: b = %v, oracle %v", raw, got.B, want.B)
		}
		for i := range got.B {
			if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
				t.Fatalf("%q: b[%d] = %v (%#x), oracle %v (%#x)", raw, i,
					got.B[i], math.Float64bits(got.B[i]), want.B[i], math.Float64bits(want.B[i]))
			}
		}
		got.B, want.B = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: request %+v, oracle %+v", raw, got, want)
		}
	})
}

// TestParseFloatsMatchesStrconv holds the number parser, fast path and
// fallback alike, to strconv.ParseFloat bit for bit over shortest, fixed
// and random-digit spellings of random values.
func TestParseFloatsMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var nums []string
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		u := rng.Float64()*2 - 1
		nums = append(nums,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(u, 'g', -1, 64),
			strconv.FormatFloat(u, 'f', rng.Intn(30), 64),
			strconv.FormatFloat(u*1e30, 'e', rng.Intn(25), 64),
			strconv.FormatInt(rng.Int63()>>uint(rng.Intn(63)), 10))
		digits := make([]byte, 2+rng.Intn(24))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		digits[0] = byte('1' + rng.Intn(9))
		nums = append(nums, fmt.Sprintf("%s.%se%d", digits[:1], digits[1:], rng.Intn(60)-30))
	}
	body := "[" + strings.Join(nums, ",") + "]"
	got := make([]float64, len(nums))
	n, slow, err := parseFloats(got, []byte(body))
	if err != nil || n != len(nums) {
		t.Fatalf("parsed %d of %d numbers: %v", n, len(nums), err)
	}
	if slow == 0 || slow == n {
		t.Fatalf("%d of %d numbers took strconv: one path is untested", slow, n)
	}
	for i, s := range nums {
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s parsed as %v, strconv %v", s, got[i], want)
		}
	}
}

// BenchmarkDecodeOperand decodes the "b" array of a RandomDense operand as
// a JSON request carries it, with encoding/json and with the scanner, and
// reports the share of elements that took strconv.ParseFloat.
func BenchmarkDecodeOperand(b *testing.B) {
	op := twoface.RandomDense(4096, 32, 42).Data
	arr, err := json.Marshal(op)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(arr)))
		for i := 0; i < b.N; i++ {
			var dst []float64
			if err := json.Unmarshal(arr, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(arr)))
		slow := 0
		for i := 0; i < b.N; i++ {
			dst := make([]float64, len(op))
			var err error
			if _, slow, err = parseFloats(dst, arr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(slow)/float64(len(op)), "fallback/elem")
	})
}

// TestOctetByteOrder: the operand read straight into memory has the same
// bits whether the host's order needs no swap or the swap is forced by
// injecting a big-endian order, which decodes the wire's little-endian
// bytes in place, the path a big-endian host takes.
func TestOctetByteOrder(t *testing.T) {
	want := []float64{1.5, math.Copysign(0, -1), math.Inf(-1), 5e-324, -math.MaxFloat64,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0x0123456789abcdef)}
	wire := make([]byte, 8*len(want))
	for i, v := range want {
		binary.LittleEndian.PutUint64(wire[8*i:], math.Float64bits(v))
	}
	for _, native := range []binary.ByteOrder{binary.NativeEndian, binary.BigEndian} {
		got := make([]float64, len(want))
		if err := readOctetOperand(bytes.NewReader(wire), int64(len(wire)), got, native); err != nil {
			t.Fatalf("%v: %v", native, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: element %d = %#x, want %#x", native, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	// One byte short or long, with or without a declared length.
	for _, body := range [][]byte{wire[:len(wire)-1], append(wire[:len(wire):len(wire)], 0)} {
		for _, declared := range []int64{-1, int64(len(body))} {
			err := readOctetOperand(bytes.NewReader(body), declared, make([]float64, len(want)), binary.NativeEndian)
			if he, ok := err.(*httpError); !ok || he.status != http.StatusBadRequest {
				t.Fatalf("%d-byte body, declared %d: %v, want 400", len(body), declared, err)
			}
		}
	}
}

// encodeOctet is the octet-stream body of an operand.
func encodeOctet(data []float64) []byte {
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// TestLastBitNearDuplicateDoesNotCoalesce: two concurrent octet operands
// that differ only in the lowest bit of their last element hash apart or
// fail the bitwise check, and each runs its own multiply.
func TestLastBitNearDuplicateDoesNotCoalesce(t *testing.T) {
	s := startServer(t, Config{AllowHold: true})
	res := fixture(t).Get("alpha")
	b1 := twoface.RandomDense(res.Plan.NumCols(), fixtureK, 6).Data
	b2 := append([]float64(nil), b1...)
	last := len(b2) - 1
	b2[last] = math.Float64frombits(math.Float64bits(b2[last]) ^ 1)
	if operandHash(b1) == operandHash(b2) && sameOperand(b1, b2) {
		t.Fatal("operands one bit apart share a coalescing key and pass the bitwise check")
	}

	post := func(query string, data []float64) (int, *MultiplyResponse) {
		resp, err := http.Post("http://"+s.Addr()+"/v1/multiply?plan=alpha"+query,
			"application/octet-stream", bytes.NewReader(encodeOctet(data)))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		var mr MultiplyResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
				t.Error(err)
			}
		}
		return resp.StatusCode, &mr
	}
	leadCh := make(chan int, 1)
	go func() {
		code, _ := post("&hold_ms=400", b1)
		leadCh <- code
	}()
	// The leader holds its slot, and its flight is joinable.
	waitFor(t, func() bool { return metricInflight.Value() == 1 })
	code, near := post("", b2)
	if code != http.StatusOK {
		t.Fatalf("near-duplicate = %d", code)
	}
	if near.Coalesced {
		t.Fatal("near-duplicate coalesced onto a different operand's execution")
	}
	if code := <-leadCh; code != http.StatusOK {
		t.Fatalf("leader = %d", code)
	}
	if got := metricExecs.Value(); got != 2 {
		t.Fatalf("exec count = %d, want 2 (distinct operands must both run)", got)
	}
	if got := metricCoalesced.Value(); got != 0 {
		t.Fatalf("coalesced count = %d, want 0", got)
	}
}

// exchange sends one hand-written request on a fresh connection, then
// half-closes it, as a client that has nothing more to send, and returns
// the response status, or 0 if no response came within the deadline.
func exchange(t *testing.T, addr, head string, body []byte, chunked bool) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		w := bufio.NewWriter(conn)
		w.WriteString(head)
		if chunked {
			cw := httputil.NewChunkedWriter(w)
			for rest := body; len(rest) > 0; {
				n := min(len(rest), 4096)
				cw.Write(rest[:n])
				rest = rest[n:]
			}
			cw.Close()
			w.WriteString("\r\n")
		} else {
			w.Write(body)
		}
		w.Flush() // a server that refuses early may close before all of it
		conn.(*net.TCPConn).CloseWrite()
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	<-sent
	if err != nil {
		t.Logf("no response: %v", err)
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestHostileBodies: each malformed or lying body, in either encoding, gets
// a 4xx, never a hang or a panic, and the server allocates no more than a
// constant times the bytes it actually received, plus one operand of the
// plan: a declared length sizes nothing, and a JSON "b" is refused at its
// first element past the operand.
func TestHostileBodies(t *testing.T) {
	s := startServer(t, Config{})
	capped := startServer(t, Config{MaxBodyBytes: 64 << 10})
	res := fixture(t).Get("alpha")
	want := res.Plan.NumCols() * res.K
	operand := int64(8 * want)

	jsonB := func(elems int) []byte {
		return []byte(`{"plan":"alpha","b":[` + strings.Repeat("0,", elems-1) + `0]}`)
	}
	tooLong := jsonB(want + 1)
	overCap := []byte(`{"plan":"alpha","seed":1,"pad":"` + strings.Repeat("x", 128<<10) + `"}`)
	octet := encodeOctet(make([]float64, want))
	octetLong := encodeOctet(make([]float64, want+1))
	ten := []byte("0123456789")

	type tc struct {
		name    string
		srv     *Server
		ctype   string
		length  int64 // declared Content-Length; -1 sends the body chunked
		body    []byte
		wantSts int
	}
	var cases []tc
	for _, c := range []struct {
		enc, ctype string
		long, ok   []byte
	}{
		{"json", "application/json", tooLong, jsonB(want)},
		{"octet", "application/octet-stream", octetLong, octet},
	} {
		cases = append(cases,
			tc{c.enc + " one element too long", s, c.ctype, int64(len(c.long)), c.long, 400},
			tc{c.enc + " length claims more than sent", s, c.ctype, int64(len(c.ok)) + 8, c.ok, 400},
			tc{c.enc + " length claims fewer than sent", s, c.ctype, int64(len(c.ok)) - 8, c.ok, 400},
			tc{c.enc + " chunked, one element too long", s, c.ctype, -1, c.long, 400},
			tc{c.enc + " chunked, truncated", s, c.ctype, -1, c.ok[:len(c.ok)-9], 400},
			tc{c.enc + " claims 200 MiB, sends 10 bytes", s, c.ctype, 200 << 20, ten, 400},
		)
	}
	cases = append(cases,
		tc{"json over MaxBodyBytes", capped, "application/json", int64(len(overCap)), overCap, 413},
		tc{"json chunked over MaxBodyBytes", capped, "application/json", -1, overCap, 413},
		tc{"octet over MaxBodyBytes", capped, "application/octet-stream", operand, octet, 413},
	)

	for _, c := range cases {
		head := "POST /v1/multiply?plan=alpha HTTP/1.1\r\nHost: x\r\nContent-Type: " + c.ctype + "\r\n"
		if c.length < 0 {
			head += "Transfer-Encoding: chunked\r\n\r\n"
		} else {
			head += "Content-Length: " + strconv.FormatInt(c.length, 10) + "\r\n\r\n"
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code := exchange(t, c.srv.Addr(), head, c.body, c.length < 0)
		runtime.ReadMemStats(&after)
		if code != c.wantSts {
			t.Errorf("%s: status %d, want %d", c.name, code, c.wantSts)
		}
		received := int64(len(head) + len(c.body))
		bound := 4*received + operand + 256<<10
		if got := int64(after.TotalAlloc - before.TotalAlloc); got > bound {
			t.Errorf("%s: allocated %d bytes for %d received; bound %d", c.name, got, received, bound)
		}
	}
	if metricRequests.Value() != 0 {
		t.Fatalf("hostile bodies entered the outcome accounting: requests=%d", metricRequests.Value())
	}
}

package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"unsafe"
)

// Request ingress. A multiply body is read once, and every operand byte is
// touched about once on its way into the operand (DESIGN.md §13, Ingress).
//
// A JSON body is scanned in two passes. Pass 1 walks the top-level object,
// cuts out the value of the last member named "b" (matched without regard
// to case, as encoding/json matches field names), and re-assembles every
// other member into a small object that encoding/json decodes, so the small
// fields keep its exact semantics. The plan resolves next, because "b" may
// precede "plan" and its length is the plan's. Pass 2 parses the "b" array
// straight into an operand of exactly that length and refuses the first
// element past it, so a hostile body costs no more than its own bytes and
// one operand of the plan.
//
// An octet-stream body is read straight into the operand's memory.

// decodeJSONRequest decodes a JSON multiply request body and resolves the
// plan it names. The returned request's B, when present, has exactly the
// plan's NumCols × K elements.
func decodeJSONRequest(raw []byte, plans *Registry) (MultiplyRequest, *Resident, error) {
	var req MultiplyRequest
	small, b, err := splitObject(raw)
	if err != nil {
		return req, nil, badRequest("bad request body: %v", err)
	}
	if err := json.Unmarshal(small, &req); err != nil {
		return req, nil, badRequest("bad request body: %v", err)
	}
	resident, err := plans.resolve(req.Plan)
	if err != nil {
		return req, nil, err
	}
	if b == nil || b[0] == 'n' { // absent, or null
		return req, resident, nil
	}
	want := resident.Plan.NumCols() * resident.K
	data := make([]float64, want)
	n, _, err := parseFloats(data, b)
	switch {
	case errors.Is(err, errTooManyElements):
		return req, nil, badRequest("operand has more than %d elements (%d x %d)",
			want, resident.Plan.NumCols(), resident.K)
	case err != nil:
		return req, nil, badRequest("bad request body: b: %v", err)
	case n != want:
		return req, nil, badRequest("operand has %d elements, want %d (%d x %d)",
			n, want, resident.Plan.NumCols(), resident.K)
	}
	req.B = data
	return req, resident, nil
}

// readError maps a body read failure onto 413 (over MaxBodyBytes) or 400.
func readError(err error) error {
	if maxed := maxBytesError(err); maxed != nil {
		return maxed
	}
	return badRequest("reading body: %v", err)
}

// splitObject is pass 1. It returns the request object without its "b"
// members, and the raw value of the last "b" member (nil when there is
// none). A "b" value must be null or an array; an earlier "b" member, which
// the last one overrides, must still parse, as encoding/json decodes it.
// Every other member is copied verbatim, so json.Unmarshal of small checks
// the syntax of what this pass only skips.
func splitObject(raw []byte) (small, b []byte, err error) {
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] != '{' {
		return nil, nil, errors.New("not a JSON object")
	}
	small = append(make([]byte, 0, 128), '{')
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == '}' {
		i++
	} else {
		for {
			if i == len(raw) || raw[i] != '"' {
				return nil, nil, errors.New("expected a member name")
			}
			keyEnd, err := skipString(raw, i)
			if err != nil {
				return nil, nil, err
			}
			key := raw[i:keyEnd]
			i = skipSpace(raw, keyEnd)
			if i == len(raw) || raw[i] != ':' {
				return nil, nil, errors.New("expected ':' after a member name")
			}
			i = skipSpace(raw, i+1)
			var end int
			if isOperandKey(key) {
				if end, err = skipOperand(raw, i); err != nil {
					return nil, nil, err
				}
				if b != nil && b[0] == '[' {
					if _, _, err := parseFloats(nil, b); err != nil {
						return nil, nil, err
					}
				}
				b = raw[i:end]
			} else {
				if end, err = skipValue(raw, i); err != nil {
					return nil, nil, err
				}
				if len(small) > 1 {
					small = append(small, ',')
				}
				small = append(small, key...)
				small = append(small, ':')
				small = append(small, raw[i:end]...)
			}
			i = skipSpace(raw, end)
			if i < len(raw) && raw[i] == ',' {
				i = skipSpace(raw, i+1)
				continue
			}
			if i < len(raw) && raw[i] == '}' {
				i++
				break
			}
			return nil, nil, errors.New("expected ',' or '}' after an object member")
		}
	}
	if skipSpace(raw, i) != len(raw) {
		return nil, nil, errors.New("trailing data after the request object")
	}
	return append(small, '}'), b, nil
}

// isOperandKey reports whether a quoted member name selects
// MultiplyRequest.B: its text, unescaped, is "b" or "B".
func isOperandKey(key []byte) bool {
	if string(key) == `"b"` || string(key) == `"B"` {
		return true
	}
	if bytes.IndexByte(key, '\\') < 0 {
		return false
	}
	var name string
	return json.Unmarshal(key, &name) == nil && (name == "b" || name == "B")
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index past the string that opens at s[i].
func skipString(s []byte, i int) (int, error) {
	for j := i + 1; j < len(s); j++ {
		switch s[j] {
		case '"':
			return j + 1, nil
		case '\\':
			j++
		}
	}
	return 0, errors.New("unterminated string")
}

// skipValue returns the index past the value that starts at s[i]. It finds
// the value's end the way a JSON parser would on valid input and leaves
// validation to the caller.
func skipValue(s []byte, i int) (int, error) {
	if i == len(s) {
		return 0, io.ErrUnexpectedEOF
	}
	switch s[i] {
	case '"':
		return skipString(s, i)
	case '[', '{':
		depth := 0
		for j := i; j < len(s); j++ {
			switch s[j] {
			case '"':
				end, err := skipString(s, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '[', '{':
				depth++
			case ']', '}':
				if depth--; depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, errors.New("unterminated array or object")
	}
	j := i
	for j < len(s) && !isDelimiter(s[j]) {
		j++
	}
	if j == i {
		return 0, errors.New("expected a value")
	}
	return j, nil
}

func isDelimiter(c byte) bool {
	switch c {
	case ',', '}', ']', ':', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// skipOperand returns the index past a "b" value: null, or an array whose
// end is its first ']'. An array of numbers and nulls, the only kind the
// operand accepts, holds no other ']'; in any other array the first ']'
// falls inside or after an element that parseFloats refuses.
func skipOperand(s []byte, i int) (int, error) {
	switch {
	case bytes.HasPrefix(s[i:], []byte("null")):
		return i + 4, nil
	case i < len(s) && s[i] == '[':
		if end := bytes.IndexByte(s[i:], ']'); end >= 0 {
			return i + end + 1, nil
		}
		return 0, errors.New("unterminated array")
	}
	return 0, errors.New("b must be an array of numbers")
}

var errTooManyElements = errors.New("too many elements")

// parseFloats is pass 2: it parses the JSON array s (from '[' to its ']')
// of numbers and nulls into dst and returns the element count, and how many
// of them took strconv.ParseFloat. A null element is 0. A nil dst only
// validates s; otherwise the element past len(dst) fails with
// errTooManyElements before it is parsed.
func parseFloats(dst []float64, s []byte) (n, slow int, err error) {
	i := skipSpace(s, 1)
	if s[i] == ']' {
		if i != len(s)-1 {
			return 0, 0, errors.New("malformed array")
		}
		return 0, 0, nil
	}
	for {
		if dst != nil && n == len(dst) {
			return n, slow, errTooManyElements
		}
		var v float64
		if s[i] == 'n' {
			if !bytes.HasPrefix(s[i:], []byte("null")) {
				return n, slow, errors.New("invalid literal")
			}
			i += 4
		} else {
			var parsed bool
			if v, i, parsed, err = parseNumber(s, i); err != nil {
				return n, slow, err
			}
			if parsed {
				slow++
			}
		}
		if dst != nil {
			dst[n] = v
		}
		n++
		i = skipSpace(s, i)
		switch {
		case s[i] == ',':
			i = skipSpace(s, i+1)
		case s[i] == ']' && i == len(s)-1:
			return n, slow, nil
		default:
			return n, slow, errors.New("expected ',' or ']' after an array element")
		}
	}
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber parses the JSON number at s[i:], which must be followed by a
// byte that is not part of it (the array's ']' always is), and returns its
// value, the index past it, and whether strconv parsed it. While it checks
// the number grammar it gathers the decimal mantissa and exponent. A
// mantissa below 2^53 with no digit dropped, scaled by an exact power of
// ten up to 10^22, rounds once in one float64 multiply or divide and so is
// exact (Clinger's fast path, the one strconv takes first); any other
// number goes to strconv.ParseFloat. A number outside float64's range is an
// error, as in encoding/json.
func parseNumber(s []byte, i int) (float64, int, bool, error) {
	start := i
	neg := s[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp := 0, 0 // digits gathered into mant; power of ten it is scaled by
	exact := true       // no nonzero digit dropped
	switch {
	case s[i] == '0':
		i++
	case '1' <= s[i] && s[i] <= '9':
		for ; '0' <= s[i] && s[i] <= '9'; i++ {
			if digits < 19 {
				mant = mant*10 + uint64(s[i]-'0')
				digits++
			} else {
				exp++
				exact = exact && s[i] == '0'
			}
		}
	default:
		return 0, i, false, errors.New("invalid number")
	}
	if s[i] == '.' {
		i++
		if s[i] < '0' || s[i] > '9' {
			return 0, i, false, errors.New("invalid number: no digit after '.'")
		}
		// Eight digits at a time while they fit. Leading zeros count here,
		// which only ends the gathering early: mant < 10^digits holds.
		for digits <= 19-8 && len(s)-i >= 8 {
			v := binary.LittleEndian.Uint64(s[i:])
			if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
				break // not eight digits
			}
			mant = mant*1e8 + eightDigits(v)
			digits += 8
			exp -= 8
			i += 8
		}
		for ; '0' <= s[i] && s[i] <= '9'; i++ {
			if digits < 19 {
				mant = mant*10 + uint64(s[i]-'0')
				if mant != 0 {
					digits++
				}
				exp--
			} else {
				exact = exact && s[i] == '0'
			}
		}
	}
	if s[i] == 'e' || s[i] == 'E' {
		i++
		eneg := false
		if s[i] == '+' || s[i] == '-' {
			eneg = s[i] == '-'
			i++
		}
		if s[i] < '0' || s[i] > '9' {
			return 0, i, false, errors.New("invalid number: no digit in exponent")
		}
		e := 0
		for ; '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 1<<20 { // past any float64 exponent; ParseFloat takes it from here
				e = e*10 + int(s[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if exact && mant < 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(mant)
		if exp >= 0 {
			f *= exactPow10[exp]
		} else {
			f /= exactPow10[-exp]
		}
		if neg {
			f = -f
		}
		return f, i, false, nil
	}
	f, err := strconv.ParseFloat(unsafe.String(&s[start], i-start), 64)
	if err != nil {
		return 0, i, true, errors.New("number out of float64 range")
	}
	return f, i, true, nil
}

// eightDigits returns the value of the eight ASCII digits in v, the first
// in its low byte, by pairwise SWAR merges (10·a+b, then 100·ab+cd, then
// 10⁴·abcd+efgh).
func eightDigits(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return uint64(uint32(v))
}

// readOctetOperand reads an octet-stream operand, little-endian float64s,
// straight into dst's memory. The body must hold exactly 8·len(dst) bytes:
// a declared Content-Length (-1 when the client sent none) is checked before
// anything is read, and one probe byte past the operand finds a longer body.
// native is the host's byte order; on a big-endian host the elements are
// swapped in place after the read.
func readOctetOperand(body io.Reader, contentLength int64, dst []float64, native binary.ByteOrder) error {
	want := 8 * int64(len(dst))
	if contentLength >= 0 && contentLength != want {
		return badRequest("binary operand is %d bytes, want %d", contentLength, want)
	}
	view := floatBytes(dst)
	if n, err := io.ReadFull(body, view); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return badRequest("binary operand is %d bytes, want %d", n, want)
		}
		return readError(err)
	}
	var probe [1]byte
	switch _, err := io.ReadFull(body, probe[:]); {
	case err == nil:
		return badRequest("binary operand is longer than %d bytes", want)
	case err != io.EOF:
		return readError(err)
	}
	if native.Uint16([]byte{1, 0}) != 1 {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(view[8*i:]))
		}
	}
	return nil
}

// floatBytes returns the memory of v viewed as bytes. A byte slice has no
// alignment requirement, and the view keeps v's backing array alive.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

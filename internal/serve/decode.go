package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// maxBodyBytes bounds a predict request body; a larger one is answered 413.
// It is over 200 times the largest body the benchmark sends (8 SqueezeNet
// items, ~268 KB).
const maxBodyBytes = 64 << 20

// maxPooledBytes caps each slice a pooled predictBuf may keep. A request that
// grew one past it drops its buffer instead of returning it, so one huge
// request never pins memory in the pool.
const maxPooledBytes = 1 << 20

// predictBuf is one predict request's reusable decode state: the raw body and
// the storage the decoded shape and data live in. handlePredict takes one
// from predictBufs and releases it once Provider.Predict has returned.
type predictBuf struct {
	body  []byte
	shape []int
	data  []float32
}

var predictBufs = sync.Pool{New: func() any { return new(predictBuf) }}

func getPredictBuf() *predictBuf { return predictBufs.Get().(*predictBuf) }

// oversized reports whether a slice of pb grew past maxPooledBytes.
func (pb *predictBuf) oversized() bool {
	return cap(pb.body) > maxPooledBytes || 8*cap(pb.shape) > maxPooledBytes || 4*cap(pb.data) > maxPooledBytes
}

// release returns pb to the pool unless it is oversized. Nothing decoded
// from pb may be used after release.
func (pb *predictBuf) release() {
	if !pb.oversized() {
		predictBufs.Put(pb)
	}
}

// readBody reads r's body into pb.body, at most limit bytes. The buffer is
// sized from Content-Length when the client sent one, but never past
// maxPooledBytes up front: beyond that it grows only as bytes arrive, so a
// client that declares a large body and sends little costs little. A
// declared length over the limit is refused before anything is read. Over
// the limit the error is an *http.MaxBytesError.
func (pb *predictBuf) readBody(w http.ResponseWriter, r *http.Request, limit int64) error {
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	buf := pb.body[:0]
	if n := int(min(r.ContentLength, maxPooledBytes)) + 1; cap(buf) < n { // +1: the read that sees EOF needs no growth
		buf = make([]byte, 0, n)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			pb.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode decodes pb.body as a PredictRequest. The body every client sends is
// scanned into pb's storage; anything else goes through encoding/json, which
// stays the reference, so every answer and error text is encoding/json's.
func (pb *predictBuf) decode() (PredictRequest, error) {
	if req, ok := pb.scan(); ok {
		return req, nil
	}
	var req PredictRequest
	err := json.NewDecoder(bytes.NewReader(pb.body)).Decode(&req)
	return req, err
}

// scan decodes exactly this grammar: one object whose members are "shape"
// (an array of JSON integers) and "data" (an array of JSON numbers), each at
// most once and in either order, with JSON whitespace wherever it is legal and
// nothing but whitespace after the closing brace. It reports false on any
// other input, including unknown, case-variant or escaped keys, null, and
// numbers outside the JSON grammar or out of range; encoding/json then
// decides. What scan accepts, it decodes bit for bit as encoding/json does.
func (pb *predictBuf) scan() (PredictRequest, bool) {
	var req PredictRequest
	s := scanner{b: pb.body}
	if !s.consume('{') {
		return req, false
	}
	if !s.consume('}') {
		seenShape, seenData := false, false
		for {
			s.ws()
			ok := false
			switch {
			case s.literal(`"shape"`):
				if seenShape || !s.consume(':') {
					return req, false
				}
				seenShape = true
				pb.shape, ok = s.ints(pb.shape[:0])
				req.Shape = pb.shape
			case s.literal(`"data"`):
				if seenData || !s.consume(':') {
					return req, false
				}
				seenData = true
				pb.data, ok = s.floats(pb.data[:0])
				req.Data = pb.data
			}
			if !ok {
				return req, false
			}
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return req, false
		}
	}
	s.ws()
	return req, s.i == len(s.b)
}

// scanner walks a JSON body byte by byte.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if the input continues with it.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// ints appends a JSON array of integers to dst.
func (s *scanner) ints(dst []int) ([]int, bool) {
	if !s.consume('[') {
		return dst, false
	}
	if s.consume(']') {
		return dst, true
	}
	for {
		s.ws()
		v, ok := s.int()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if !s.consume(',') {
			return dst, s.consume(']')
		}
	}
}

// int scans -?(0|[1-9][0-9]*) and converts it with strconv.Atoi, reporting
// false where that fails (overflow). A literal that goes on with a fraction
// or an exponent fails on the delimiter its caller expects next.
func (s *scanner) int() (int, bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for ; s.i < len(s.b) && isDigit(s.b[s.i]); s.i++ {
	}
	if n := s.i - digits; n == 0 || (n > 1 && s.b[digits] == '0') {
		return 0, false
	}
	v, err := strconv.Atoi(string(s.b[start:s.i]))
	return v, err == nil
}

// floats appends a JSON array of numbers to dst, each converted as
// strconv.ParseFloat(literal, 32) converts it.
func (s *scanner) floats(dst []float32) ([]float32, bool) {
	if !s.consume('[') {
		return dst, false
	}
	if s.consume(']') {
		return dst, true
	}
	for {
		s.ws()
		f, ok := s.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
		if !s.consume(',') {
			return dst, s.consume(']')
		}
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float scans one number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns what
// strconv.ParseFloat(literal, 32) returns, reporting false where that fails
// (overflow) or the literal is not in the grammar.
//
// Fast path: a mantissa m of at most 19 digits (leading zeros included)
// below 2^53 and a decimal exponent e in [-22, 22]. Both m and 10^|e| are
// exact float64s, so one IEEE multiply or divide gives the correctly rounded
// float64 d of the literal's value x. Rounding d to float32 gives the correctly rounded
// float32 of x unless d lies exactly halfway between two float32s (low 29
// mantissa bits == 1<<28): no float64 lies strictly between x and d, and every
// float32 midpoint is a float64, so any midpoint separating x from d would be
// d itself. |d| sits in [1e-22, 9.1e37], inside float32's normal range,
// where that bit test finds every midpoint. Midpoints and everything outside
// the fast path go to strconv. The fast path earns its keep: the float32
// shortest forms clients send mostly carry mantissas past 2^24, which strconv
// takes through Eisel-Lemire, and BenchmarkDecodePredict's strconv arm takes
// over twice as long as the whole scanner on the benchmark's bodies.
func (s *scanner) float() (float32, bool) {
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// mant takes every digit; past 19 of them it may wrap, and the fast path
	// is off.
	var mant uint64
	intStart := i
	for ; i < len(b) && isDigit(b[i]); i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	nd, exp := i-intStart, 0
	if nd == 0 || (nd > 1 && b[intStart] == '0') {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == fracStart {
			return 0, false
		}
		nd += i - fracStart
		exp = fracStart - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		expStart, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.i = i
	if nd <= 19 && mant < 1<<53 && exp >= -22 && exp <= 22 {
		d := float64(mant)
		if exp < 0 {
			d /= pow10[-exp]
		} else {
			d *= pow10[exp]
		}
		if math.Float64bits(d)&(1<<29-1) != 1<<28 {
			if neg {
				d = -d
			}
			return float32(d), true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(v), err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

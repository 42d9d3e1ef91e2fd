package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/tensor"
)

// workloadBody builds a predict body the way the benchmark does: items
// Gaussian inputs of the compiled input shape, concatenated, with the shape's
// batch dimension scaled to match, marshalled by encoding/json.
func workloadBody(t testing.TB, items int, in ...int) []byte {
	t.Helper()
	shape := append([]int(nil), in...)
	shape[0] *= items
	var data []float32
	for k := 0; k < items; k++ {
		x := tensor.New(in...)
		tensor.FillGaussian(x, tensor.NewRNG(uint64(100+k)), 1)
		data = append(data, x.Data()...)
	}
	body, err := json.Marshal(PredictRequest{Shape: shape, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// workloadBodies are the three body sizes the benchmark's workloads send.
var workloadBodies = []struct {
	name  string
	items int
	in    []int
}{
	{"lenet5x1", 1, []int{1, 1, 28, 28}},
	{"squeezenetx1", 1, []int{1, 3, 32, 32}},
	{"squeezenetx8", 8, []int{1, 3, 32, 32}},
}

// checkDecode decodes body through predictBuf.decode and through
// encoding/json's Decoder, and fails unless both give the same error text or
// both succeed with equal shapes and bit-equal data.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	pb := &predictBuf{body: body}
	got, gotErr := pb.decode()
	var want PredictRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !slices.Equal(got.Shape, want.Shape) {
		t.Fatalf("body %q: shape %v, encoding/json %v", body, got.Shape, want.Shape)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("body %q: %d data values, encoding/json %d", body, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("body %q: data[%d] = %v (%#x), encoding/json %v (%#x)", body, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// decodeSeeds are bodies on both sides of the scanner's grammar: the form
// every client sends, its legal variations, and what must fall back. Plain
// `go test` runs each through FuzzDecodePredict.
var decodeSeeds = []string{
	`{"shape":[1,1,4,4],"data":[0.5,-1.25,3,1e-7]}`,
	`{"data":[1,2],"shape":[2]}`,
	" \t\r\n{ \"shape\" : [ 1 , 2 ] ,\n\"data\" :\t[ 1.5 , -2 ] } \n",
	`{}`, `{"data":[]}`, `{"shape":[]}`, `{"data":[-0]}`, `{"data":[-0.0,0e5]}`,
	`{"data":[1E+2,1e-2,2.5E-3]}`, `{"data":[1e-45]}`, `{"data":[3.4028235e38]}`,
	`{"data":[1e39]}`, `{"data":[-1e39]}`, `{"data":[01]}`, `{"data":[.5]}`, `{"data":[1.]}`,
	`{"data":[+1]}`, `{"data":[1e]}`, `{"data":[-]}`, `{"data":[0x10]}`, `{"data":[NaN]}`,
	`{"data":[12345678901234567890123]}`, `{"data":[0.000000000000000000000000001]}`,
	`{"data":[16777217]}`, `{"data":[33554433e-1]}`,
	`{"DATA":[1]}`, `{"Data":[1]}`, `{"data":[1]}`, `{"data":[1],"data":[2]}`,
	`{"shape":[1],"shape":[2],"data":[1]}`, `{"data":null}`, `{"shape":null,"data":[1]}`,
	`{"data":[1],"extra":true}`, `{"data":[1]}garbage`, `{"data":[1]} {"data":[2]}`,
	`{"data":[1],}`, `{,"data":[1]}`, `{"data":[1,]}`, `{"data":[,1]}`, `{"data" [1]}`,
	`{"shape""data":[1]}`, `{"shape":[1.0],"data":[1]}`, `{"shape":[1e2],"data":[1]}`,
	`{"shape":[-0,-3],"data":[1]}`, `{"shape":[99999999999999999999],"data":[1]}`,
	`{"shape":[123456789012345678],"data":[]}`, `{"shape":[01],"data":[1]}`,
	`{"data":["1"]}`, `{"data":[true]}`, `{"data":{}}`, `[]`, `null`, ``, ` `, `{`,
	`{"data":[1]`, `{"data":[1`, "\xef\xbb\xbf{\"data\":[1]}",
}

// TestDecodePredictWorkloadBodies pins the fast path on the benchmark's own
// body form: every body is scanned (no fallback) and decodes bit-identically
// to encoding/json.
func TestDecodePredictWorkloadBodies(t *testing.T) {
	for _, wb := range workloadBodies {
		body := workloadBody(t, wb.items, wb.in...)
		if _, ok := (&predictBuf{body: body}).scan(); !ok {
			t.Fatalf("%s: the benchmark's body fell back to encoding/json", wb.name)
		}
		checkDecode(t, body)
	}
}

// TestFloatScanMatchesStrconv compares the number scanner with
// strconv.ParseFloat(s, 32) over the literals JSON encoders produce for
// float32 and float64 values, exact float32 rounding midpoints (which the
// fast path must hand to strconv), and random decimal strings.
func TestFloatScanMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(lit string) {
		t.Helper()
		s := scanner{b: []byte(lit)}
		got, ok := s.float()
		want, err := strconv.ParseFloat(lit, 32)
		if ok != (err == nil) || s.i != len(lit) {
			t.Fatalf("%q: ok %v consumed %d, strconv err %v", lit, ok, s.i, err)
		}
		if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%q: %v (%#x), strconv %v (%#x)", lit, got, math.Float32bits(got), want, math.Float32bits(float32(want)))
		}
	}
	for n := 0; n < 30000; n++ {
		f := math.Float32frombits(rng.Uint32())
		if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
			continue
		}
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
		check(strconv.FormatFloat(float64(f), 'e', -1, 32))
		// The exact midpoint above f, written out in full as a float64.
		mid := float64(f) + (float64(math.Nextafter32(f, float32(math.Inf(1))))-float64(f))/2
		check(strconv.FormatFloat(mid, 'g', -1, 64))
		d := math.Float64frombits(rng.Uint64())
		if !math.IsInf(d, 0) && !math.IsNaN(d) {
			check(strconv.FormatFloat(d, 'g', -1, 64))
		}
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
		check(strconv.FormatFloat(x, 'g', -1, 64))
		check(strconv.FormatFloat(x, 'f', rng.Intn(12), 64))
		check(fmt.Sprintf("%de%d", rng.Int63n(1<<62), rng.Intn(60)-30))
	}
}

// TestHTTPBodyTooLarge sends a valid request padded past maxBodyBytes with
// whitespace: the handler must answer 413 with the JSON error envelope,
// without reading the body when its Content-Length already says too much.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, p := newTestServer(t, Config{})
	body, _ := json.Marshal(PredictRequest{Data: testInput(56, 1).Data()})
	r := httptest.NewRequest("POST", "/v1/models/tiny/predict",
		io.MultiReader(bytes.NewReader(body), &spaces{n: maxBodyBytes}))
	r.ContentLength = int64(len(body)) + maxBodyBytes
	w := httptest.NewRecorder()
	NewHandler(p).ServeHTTP(w, r)
	var eb errorBody
	if err := json.NewDecoder(w.Body).Decode(&eb); err != nil {
		t.Fatalf("%d reply: %v", w.Code, err)
	}
	if w.Code != http.StatusRequestEntityTooLarge || eb.Error != fmt.Sprintf("request body over %d bytes", maxBodyBytes) {
		t.Fatalf("oversized body -> %d %q, want 413", w.Code, eb.Error)
	}
}

// TestReadBodyLimits checks the bound on a body without Content-Length (read
// up to the limit, then *http.MaxBytesError) and that an oversized buffer is
// not pooled.
func TestReadBodyLimits(t *testing.T) {
	for _, tc := range []struct {
		n       int
		tooLong bool
	}{{1000, false}, {1024, false}, {1025, true}, {5000, true}} {
		r := httptest.NewRequest("POST", "/", &spaces{n: tc.n})
		r.ContentLength = -1
		pb := &predictBuf{}
		err := pb.readBody(httptest.NewRecorder(), r, 1024)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) != tc.tooLong || (!tc.tooLong && (err != nil || len(pb.body) != tc.n)) {
			t.Errorf("%d-byte body under a 1024-byte limit: err %v, read %d", tc.n, err, len(pb.body))
		}
	}
	if (&predictBuf{body: make([]byte, maxPooledBytes)}).oversized() {
		t.Error("a buffer at the cap counts as oversized")
	}
	if !(&predictBuf{data: make([]float32, maxPooledBytes/4+1)}).oversized() {
		t.Error("a data slice over the cap would be pooled")
	}
}

// TestReadBodyDeclaredLengthNotPreallocated sends a few bytes under a
// Content-Length of maxBodyBytes: readBody must not allocate the declared
// length up front, only what the pool's cap allows plus what arrives.
func TestReadBodyDeclaredLengthNotPreallocated(t *testing.T) {
	r := httptest.NewRequest("POST", "/", &spaces{n: 100})
	r.ContentLength = maxBodyBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pb := &predictBuf{}
	err := pb.readBody(httptest.NewRecorder(), r, maxBodyBytes)
	runtime.ReadMemStats(&after)
	if err != nil || len(pb.body) != 100 {
		t.Fatalf("read %d bytes, err %v", len(pb.body), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPooledBytes {
		t.Fatalf("a 100-byte body declared %d bytes long allocated %d bytes", maxBodyBytes, got)
	}
}

// spaces reads as n JSON whitespace bytes.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// FuzzDecodePredict: for any body, the pooled decode agrees with
// encoding/json — the same error text, or equal shapes and bit-equal data.
func FuzzDecodePredict(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Add(workloadBody(f, 2, 1, 1, 2, 2)) // the benchmark's body form, small enough to mutate fast
	f.Fuzz(checkDecode)
}

// BenchmarkDecodePredict decodes the benchmark's three body sizes with
// encoding/json (what the handler ran before) and with the pooled scanner.
// The strconv arm converts each data literal with strconv.ParseFloat alone,
// split on commas without any grammar check: a lower bound on a scanner
// without the float fast path.
func BenchmarkDecodePredict(b *testing.B) {
	for _, wb := range workloadBodies {
		body := workloadBody(b, wb.items, wb.in...)
		b.Run(wb.name+"/strconv", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			// json.Marshal puts data last: {"shape":[…],"data":[…]}.
			lits := body[bytes.Index(body, []byte(`"data":[`))+len(`"data":[`) : len(body)-len(`]}`)]
			dst := make([]float32, 0, bytes.Count(lits, []byte{','})+1)
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for rest := lits; len(rest) > 0; {
					lit := rest
					if k := bytes.IndexByte(rest, ','); k >= 0 {
						lit, rest = rest[:k], rest[k+1:]
					} else {
						rest = nil
					}
					v, err := strconv.ParseFloat(string(lit), 32)
					if err != nil {
						b.Fatal(err)
					}
					dst = append(dst, float32(v))
				}
			}
		})
		b.Run(wb.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req PredictRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wb.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				pb := getPredictBuf()
				pb.body = append(pb.body[:0], body...)
				if _, err := pb.decode(); err != nil {
					b.Fatal(err)
				}
				pb.release()
			}
		})
	}
}

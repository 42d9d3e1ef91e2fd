package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/tensor"
)

// tinyProvider is the Provider the HTTP tests serve: the tiny plan as model
// "tiny" behind one batcher, always version 1.
type tinyProvider struct {
	plan    *runtime.Plan
	batcher *Batcher
}

func (p *tinyProvider) Names() []string { return []string{"tiny"} }

func (p *tinyProvider) Info(name string) (ModelInfo, bool) {
	if name != "tiny" {
		return ModelInfo{}, false
	}
	return ModelInfo{
		Name:        name,
		Version:     1,
		InputShape:  p.plan.Graph.In.OutShape,
		OutputShape: p.plan.Graph.Out.OutShape,
		MaxBatch:    p.batcher.MaxBatch(),
	}, true
}

func (p *tinyProvider) Predict(name string, input *tensor.Tensor) (*tensor.Tensor, int64, error) {
	if name != "tiny" {
		return nil, 0, ErrUnknownModel
	}
	out, err := p.batcher.Submit(input)
	return out, 1, err
}

// failingProvider serves the tiny model's shapes but fails every predict
// with err, as an execution failure below the batcher would.
type failingProvider struct {
	tinyProvider
	err error
}

func (p *failingProvider) Predict(string, *tensor.Tensor) (*tensor.Tensor, int64, error) {
	return nil, 0, p.err
}

// newTestServer spins the tiny provider behind an httptest server.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *tinyProvider) {
	t.Helper()
	plan := testPlan(t)
	p := &tinyProvider{plan: plan, batcher: NewBatcher("tiny", plan, cfg)}
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(func() {
		srv.Close()
		p.batcher.Close()
	})
	return srv, p
}

func TestHTTPPredict(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{})

	in := testInput(51, 2)
	body, _ := json.Marshal(PredictRequest{Shape: in.Shape(), Data: in.Data()})
	resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Shape) != 2 || pr.Shape[0] != 2 || pr.Shape[1] != 3 {
		t.Fatalf("output shape %v, want [2 3]", pr.Shape)
	}
	if pr.LatencyNs <= 0 {
		t.Fatalf("latency %d", pr.LatencyNs)
	}
	n := 1
	for _, d := range pr.Shape {
		n *= d
	}
	if n != len(pr.Data) {
		t.Fatalf("data length %d != shape volume %d", len(pr.Data), n)
	}
}

func TestHTTPPredictDefaultsShape(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{})

	in := testInput(52, 1)
	body, _ := json.Marshal(PredictRequest{Data: in.Data()}) // no shape
	resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, p := newTestServer(t, Config{})

	post := func(path string, body []byte) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	good, _ := json.Marshal(PredictRequest{Data: testInput(53, 1).Data()})
	if got := post("/v1/models/nosuch/predict", good); got != http.StatusNotFound {
		t.Errorf("unknown model -> %d, want 404", got)
	}
	if got := post("/v1/models/tiny/predict", []byte("{not json")); got != http.StatusBadRequest {
		t.Errorf("bad json -> %d, want 400", got)
	}
	short, _ := json.Marshal(PredictRequest{Shape: []int{1, 1, 4, 4}, Data: []float32{1, 2}})
	if got := post("/v1/models/tiny/predict", short); got != http.StatusBadRequest {
		t.Errorf("short data -> %d, want 400", got)
	}
	wrong, _ := json.Marshal(PredictRequest{Shape: []int{1, 2, 4, 4}, Data: make([]float32, 32)})
	if got := post("/v1/models/tiny/predict", wrong); got != http.StatusBadRequest {
		t.Errorf("wrong dims -> %d, want 400", got)
	}

	// A draining batcher rejects with 503.
	p.batcher.Close()
	if got := post("/v1/models/tiny/predict", good); got != http.StatusServiceUnavailable {
		t.Errorf("closed -> %d, want 503", got)
	}
}

// TestHTTPErrorStatusIsTyped maps predict errors to statuses by type, never
// by text: an execution failure whose message happens to read like a shape
// complaint is still ours (500), and only ErrInvalidInput is the caller's
// (400).
func TestHTTPErrorStatusIsTyped(t *testing.T) {
	plan := testPlan(t)
	b := NewBatcher("tiny", plan, Config{})
	defer b.Close()
	good, _ := json.Marshal(PredictRequest{Data: testInput(55, 1).Data()})
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errors.New("runtime: batch chunk 0: input rank 3 != compiled input [1 1 4 4]"), http.StatusInternalServerError},
		{fmt.Errorf("%w: rank 3 != compiled input [1 1 4 4]", ErrInvalidInput), http.StatusBadRequest},
	} {
		srv := httptest.NewServer(NewHandler(&failingProvider{tinyProvider: tinyProvider{plan: plan, batcher: b}, err: tc.err}))
		resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(good))
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%q -> %d, want %d", tc.err, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPShapeProductOverflow sends shapes whose element count wraps around
// int back to len(data): each must be refused with 400 before it reaches the
// batcher (RunBatch would panic sizing the result on the dispatch goroutine,
// outside net/http's recover, and take the process down), and the handler
// must keep serving afterwards.
func TestHTTPShapeProductOverflow(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{})

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ones := strings.TrimSuffix(strings.Repeat("1,", 16), ",")
	for _, body := range []string{
		`{"data":[],"shape":[1152921504606846976,1,28,28]}`,           // 2^60 * 784 wraps to 0
		`{"data":[],"shape":[1152921504606846976,1,4,4]}`,             // same, with the tiny model's dims
		`{"data":[` + ones + `],"shape":[1152921504606846977,1,4,4]}`, // (2^60+1) * 16 wraps to 16
	} {
		resp := post(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", body, resp.StatusCode)
		}
	}

	resp := post(`{"data":[` + ones + `],"shape":[1,1,4,4]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid predict after the overflow bodies -> %d, want 200", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Data) != 3 {
		t.Fatalf("output length %d, want 3", len(pr.Data))
	}
}

// TestHTTPPooledBuffersConcurrentClients runs 16 closed-loop clients with
// distinct inputs through the handler and a real batcher whose single flight
// slot is slowed by the flush hook, so flushes coalesce while the handler
// reuses pooled request buffers: every client must get the output of its own
// input, bit for bit.
func TestHTTPPooledBuffersConcurrentClients(t *testing.T) {
	rec := runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	plan := testPlan(t)
	p := &tinyProvider{plan: plan, batcher: NewBatcher("tiny", plan, Config{MaxInFlight: 1})}
	p.batcher.flushHook = func() { time.Sleep(200 * time.Microsecond) }
	srv := httptest.NewServer(NewHandler(p))
	defer p.batcher.Close()
	defer srv.Close()

	const clients, rounds = 16, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				in := testInput(uint64(1000+c*rounds+k), 1)
				body, _ := json.Marshal(PredictRequest{Shape: in.Shape(), Data: in.Data()})
				resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d round %d: status %d, %v", c, k, resp.StatusCode, err)
					return
				}
				want, err := plan.RunBatch(in, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(pr.Data, want.Data(), func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
					t.Errorf("client %d round %d: got %v, want %v", c, k, pr.Data, want.Data())
					return
				}
			}
		}()
	}
	wg.Wait()
	if ep := rec.Snapshot().Endpoints[0]; ep.MaxBatch < 2 {
		t.Errorf("no flush coalesced two requests (max batch %d)", ep.MaxBatch)
	}
}

func TestHTTPModelsAndMetrics(t *testing.T) {
	runtime.EnableMetrics()
	defer runtime.DisableMetrics()
	srv, _ := newTestServer(t, Config{MaxBatch: 9})

	info, err := fetchModelInfo(srv.URL, "tiny", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxBatch != 9 || len(info.InputShape) != 4 {
		t.Fatalf("info = %+v", info)
	}

	in := testInput(54, 1)
	body, _ := json.Marshal(PredictRequest{Data: in.Data()})
	if resp, err := http.Post(srv.URL+"/v1/models/tiny/predict", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	snap, err := FetchSnapshot(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Endpoints) != 1 || snap.Endpoints[0].Name != "tiny" || snap.Endpoints[0].Requests != 1 {
		t.Fatalf("snapshot endpoints = %+v", snap.Endpoints)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// requestIDHeader carries the request number; the traced server keys its
// spans on it, the server under test ignores it. It is always sent so traced
// and untraced requests are byte-identical.
const requestIDHeader = "X-Request-Id"

// sample is one measured predict request as the client saw it. Offsets are
// from the start of the load run.
type sample struct {
	id      int
	due     time.Duration // when the schedule said to send (== sent in a closed loop)
	sent    time.Duration
	done    time.Duration
	outcome outcome
}

// latency is what the caller waited: from the instant the request was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// span is the client's own span: send to reply.
func (s sample) span() time.Duration { return s.done - s.sent }

type outcome int

const (
	outcomeOK       outcome = iota // 200 and every check passed
	outcomeRejected                // 429
	outcomeFailed                  // anything else: transport error, other status, wrong body
)

// loadResult is one load run. Only requests due inside the measured window
// are in samples and in the counts; warm-up requests are verified too, and
// their failures are kept apart so they cannot hide.
type loadResult struct {
	samples                         []sample
	attempted, ok, rejected, failed int
	warmFailed                      int
	okAll                           int             // verified replies, warm-up included
	swaps                           []time.Duration // measured-window swap wall times
	swapFailed                      int
	firstErr                        error // first failure of any kind, for the report
	measured                        time.Duration
}

// conn is one client connection: exactly one TCP connection, one request in
// flight.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runLoad drives workload w against the server for warm+measure and checks
// every response against the oracle. It returns when every request and swap
// it started has completed.
func runLoad(c *child, w Workload, seed uint64, bodies [][]byte, orc oracle, warm, measure time.Duration) *loadResult {
	total := warm + measure
	res := &loadResult{measured: measure}
	var mu sync.Mutex // guards res
	fail := func(err error) {
		if res.firstErr == nil {
			res.firstErr = err
		}
	}

	var due []time.Duration
	if w.Rate > 0 {
		due = poissonSchedule(seed, w.Rate, total)
	}
	url := c.url + "/v1/models/" + w.Model + "/predict"
	var next atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	for conn := 0; conn < w.Conns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConnClient()
			defer client.CloseIdleConnections()
			var lastVersion int64
			var local []sample
			var localErr error
			warmFailed, okAll := 0, 0
			for {
				i := int(next.Add(1) - 1)
				var s sample
				s.id = i
				if w.Rate > 0 {
					if i >= len(due) {
						break
					}
					s.due = due[i]
					time.Sleep(time.Until(start.Add(s.due)))
					s.sent = time.Since(start)
				} else {
					s.sent = time.Since(start)
					s.due = s.sent
					if s.sent >= total {
						break
					}
				}
				version, err := predict(client, url, i, bodies[i%len(bodies)], w, orc, &s.outcome)
				s.done = time.Since(start)
				if err == nil && version < lastVersion {
					err = fmt.Errorf("request %d: version regressed from %d to %d on one connection", i, lastVersion, version)
					s.outcome = outcomeFailed
				}
				if err == nil {
					lastVersion = version
				} else if localErr == nil {
					localErr = err
				}
				if s.outcome == outcomeOK {
					okAll++
				}
				if s.due < warm {
					if s.outcome != outcomeOK {
						warmFailed++
					}
					continue
				}
				local = append(local, s)
			}
			mu.Lock()
			defer mu.Unlock()
			res.samples = append(res.samples, local...)
			res.warmFailed += warmFailed
			res.okAll += okAll
			if localErr != nil {
				fail(localErr)
			}
		}()
	}

	if w.SwapEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; ; k++ {
				at := time.Duration(k) * w.SwapEvery
				if at >= total {
					return
				}
				time.Sleep(time.Until(start.Add(at)))
				took, version, err := c.swap(w.Model, swapSeed(seed, k))
				if err == nil && version != int64(1+k) {
					err = fmt.Errorf("swap %d: server now serves version %d, want %d", k, version, 1+k)
				}
				mu.Lock()
				if err != nil {
					res.swapFailed++
					fail(err)
				} else if at >= warm {
					res.swaps = append(res.swaps, took)
				}
				mu.Unlock()
				if err != nil {
					return // versions no longer line up with the oracle
				}
			}
		}()
	}
	wg.Wait()

	for _, s := range res.samples {
		res.attempted++
		switch s.outcome {
		case outcomeOK:
			res.ok++
		case outcomeRejected:
			res.rejected++
		default:
			res.failed++
		}
	}
	return res
}

// predict sends one request and verifies the reply: status, model name, a
// version the oracle knows, and every output value. It returns the serving
// version; on any miss it sets the outcome and returns why.
func predict(client *http.Client, url string, id int, body []byte, w Workload, orc oracle, out *outcome) (int64, error) {
	*out = outcomeFailed
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestIDHeader, strconv.Itoa(id))
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("request %d: %w", id, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("request %d: reading reply: %w", id, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		*out = outcomeRejected
		return 0, fmt.Errorf("request %d: rejected with 429", id)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("request %d: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return 0, fmt.Errorf("request %d: decoding reply: %w", id, err)
	}
	if pr.Model != w.Model {
		return 0, fmt.Errorf("request %d: served by model %q, want %q", id, pr.Model, w.Model)
	}
	exp, known := orc[pr.Version]
	if !known {
		return 0, fmt.Errorf("request %d: served by version %d, which this run never loaded", id, pr.Version)
	}
	if err := exp.check(w.requestItems(id), pr.Data); err != nil {
		return 0, fmt.Errorf("request %d (version %d): %w", id, pr.Version, err)
	}
	*out = outcomeOK
	return pr.Version, nil
}

package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRunLoadCountsBrokenRepliesFailed serves fixed 200 replies to the load
// generator: only a whole answer naming the model with Items × output volume
// values counts as OK; a truncated body, an empty model name or a wrong data
// length counts as failed.
func TestRunLoadCountsBrokenRepliesFailed(t *testing.T) {
	for _, tc := range []struct {
		name, reply string
		ok          bool
	}{
		{"whole", `{"model":"m","version":1,"shape":[2,3],"data":[1,2,3,4,5,6],"latency_ns":1}`, true},
		{"truncated", `{"model":"m","version":1,"shape":[2,3],"data":[1,2,3,4`, false},
		{"no model", `{"model":"","version":1,"shape":[2,3],"data":[1,2,3,4,5,6]}`, false},
		{"short data", `{"model":"m","version":1,"shape":[1,3],"data":[1,2,3]}`, false},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, `{"models":[{"name":"m","input_shape":[1,2],"output_shape":[1,3],"max_batch":4}]}`)
		})
		mux.HandleFunc("POST /v1/models/m/predict", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, tc.reply)
		})
		srv := httptest.NewServer(mux)
		rep, err := RunLoad(LoadConfig{URL: srv.URL, Model: "m", Clients: 1, Items: 2,
			Duration: 20 * time.Millisecond, Timeout: time.Second})
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.ok && (rep.OK == 0 || rep.Failed != 0) || !tc.ok && (rep.OK != 0 || rep.Failed == 0) {
			t.Errorf("%s reply: ok %d, failed %d", tc.name, rep.OK, rep.Failed)
		}
	}
}

package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWorkerRunErrorStatuses pins the worker's 4xx classification: the
// coordinator treats every 4xx as the block's own deterministic failure
// (retrying elsewhere cannot help), so a malformed or unservable request
// must never come back as a 5xx or a 200.
func TestWorkerRunErrorStatuses(t *testing.T) {
	h := NewWorker().Handler()
	for _, tc := range []struct {
		name, method, body string
		want               int
		wantErr            string
	}{
		{"removed row_mode field", http.MethodPost, `{"wf":3,"scale":0.001,"row_mode":true,"block":0}`, http.StatusBadRequest, `unknown field "row_mode"`},
		{"removed streaming field", http.MethodPost, `{"wf":3,"scale":0.001,"streaming":true,"block":0}`, http.StatusBadRequest, `unknown field "streaming"`},
		{"removed workers field", http.MethodPost, `{"wf":3,"scale":0.001,"workers":2,"block":0}`, http.StatusBadRequest, `unknown field "workers"`},
		{"malformed json", http.MethodPost, `{"wf":3,`, http.StatusBadRequest, "bad request body"},
		{"bad faults spec", http.MethodPost, `{"wf":3,"scale":0.001,"faults":"rate=2","block":0}`, http.StatusBadRequest, "faults: rate"},
		{"unknown workflow", http.MethodPost, `{"wf":999,"scale":0.001,"block":0}`, http.StatusNotFound, ""},
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed, "POST only"},
	} {
		req := httptest.NewRequest(tc.method, "/v1/worker/run", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s: error body %q is not a JSON error (%v)", tc.name, rec.Body.String(), err)
			continue
		}
		if !strings.Contains(body.Error, tc.wantErr) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, body.Error, tc.wantErr)
		}
	}
}

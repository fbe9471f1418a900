package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Worker is the executor side of distributed block dispatch: a stateless
// HTTP server that runs exactly one physical-plan block per request and
// returns the block's boundary output, side effects and statistics shard.
//
// Statelessness is what makes the coordinator's fault tolerance simple: a
// block request carries (or deterministically implies) everything its
// execution needs — the suite workflow id and scale pin the generated
// data, the shipped join trees and observe list pin the compiled plan, the
// upstream tables arrive in the request body — so any worker can run any
// block, a reassigned block produces byte-identical results on a different
// worker, and a worker that dies loses nothing but in-flight work.
type Worker struct {
	// HTTPTimeouts harden the worker's server (zero = DefaultTimeouts).
	HTTPTimeouts Timeouts

	mu     sync.Mutex
	states map[workerKey]*workerState
}

// NewWorker returns a worker with an empty workflow cache.
func NewWorker() *Worker {
	return &Worker{states: make(map[workerKey]*workerState)}
}

// workerKey identifies one deterministic dataset: the suite workflow and
// its data scale.
type workerKey struct {
	wf    int
	scale float64
}

// workerState caches what every block of one workflow shares: the analyzed
// graph, the generated data, and CSS results per option set.
type workerState struct {
	an  *workflow.Analysis
	db  engine.DB
	css map[css.Options]*css.Result
}

// WorkerRunRequest is the wire form of one block execution. Table blobs
// use the data package's canonical binary codec (base64 inside JSON);
// everything else is plain JSON — stats.Stat, workflow.JoinTree and
// css.Options are flat exported structs that round-trip exactly.
type WorkerRunRequest struct {
	// WF and Scale pin the suite workflow and its deterministic dataset.
	WF    int     `json:"wf"`
	Scale float64 `json:"scale"`
	// Streaming selects the pipelined engine; Workers the block-internal
	// parallelism.
	Streaming bool `json:"streaming,omitempty"`
	Workers   int  `json:"workers,omitempty"`
	// MaxRows caps this block's intermediate rows (the coordinator ships
	// its per-run budget; in distributed mode the cap applies per
	// worker-block).
	MaxRows int64 `json:"max_rows,omitempty"`
	// Faults is the injector spec (faults.Parse form) so worker-side
	// operator/source/tap/budget faults reproduce the in-process pattern.
	Faults string `json:"faults,omitempty"`
	// RetryMax / RetryBackoffNs carry the engine retry knobs.
	RetryMax       int   `json:"retry_max,omitempty"`
	RetryBackoffNs int64 `json:"retry_backoff_ns,omitempty"`
	// CSS rebuilds the statistic universe when the run is instrumented.
	CSS css.Options `json:"css"`
	// Instrument, AnyPoint and Observe mirror engine.DispatchSpec.
	Instrument bool         `json:"instrument,omitempty"`
	AnyPoint   bool         `json:"any_point,omitempty"`
	Observe    []stats.Stat `json:"observe,omitempty"`
	// Plans maps block index to join tree (nil = initial trees).
	Plans map[int]*workflow.JoinTree `json:"plans,omitempty"`
	// Block is the block to execute; Upstream carries the boundary outputs
	// of its dependencies as canonical table blobs.
	Block    int            `json:"block"`
	Upstream map[int][]byte `json:"upstream,omitempty"`
	// Lease identifies the coordinator's lease on this dispatch (echoed in
	// logs/diagnostics; the worker itself is stateless).
	Lease string `json:"lease,omitempty"`
}

// WireFailedStat is a degraded statistic on the wire: the statistic plus
// its error rendered as text (errors do not round-trip as values).
type WireFailedStat struct {
	Stat stats.Stat `json:"stat"`
	Err  string     `json:"err"`
}

// WorkerRunResponse is one block's outcome on the wire.
type WorkerRunResponse struct {
	// Out is the block's boundary output (canonical table blob).
	Out []byte `json:"out"`
	// Materialized holds the block's materialized targets.
	Materialized map[string][]byte `json:"materialized,omitempty"`
	// Rows is the block's work-metric contribution.
	Rows int64 `json:"rows"`
	// Shard is the block's statistics shard in the stats v2 store format
	// (empty when uninstrumented).
	Shard []byte `json:"shard,omitempty"`
	// Degraded lists statistics whose observation failed permanently.
	Degraded []WireFailedStat `json:"degraded,omitempty"`
	// Retries counts worker-side attempts repeated after transient faults.
	Retries int64 `json:"retries,omitempty"`
}

// Handler returns the worker's endpoints.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/worker/health", wk.handleHealth)
	mux.HandleFunc("/v1/worker/run", wk.handleRun)
	return mux
}

// ListenAndServe runs the worker until the context is cancelled (SIGTERM
// is the intended stop), then drains and returns nil.
func (wk *Worker) ListenAndServe(ctx context.Context, addr string) error {
	return serveUntil(ctx, newHTTPServer(addr, wk.Handler(), wk.HTTPTimeouts))
}

func (wk *Worker) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (wk *Worker) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req WorkerRunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	resp, status, err := wk.runBlock(r.Context(), &req)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// runBlock executes one block per the request. The status return
// classifies failures for the coordinator: 4xx are deterministic (bad
// request or the block's own execution error — retrying elsewhere cannot
// help), 5xx would be worker-local trouble.
func (wk *Worker) runBlock(ctx context.Context, req *WorkerRunRequest) (*WorkerRunResponse, int, error) {
	st, err := wk.state(req.WF, req.Scale)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	flt, err := faults.Parse(req.Faults)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var res *css.Result
	var observe []stats.Stat
	if req.Instrument {
		res, err = wk.cssResult(st, req.CSS)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		observe = req.Observe
	}
	upstream := make(map[int]*data.Table, len(req.Upstream))
	for idx, blob := range req.Upstream {
		tbl, err := data.ReadTable(bytes.NewReader(blob))
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("upstream block %d: %w", idx, err)
		}
		upstream[idx] = tbl
	}
	var rb *engine.RemoteBlock
	if req.Streaming {
		eng := engine.NewStream(st.an, st.db, nil)
		eng.Workers = req.Workers
		eng.MaxRows = req.MaxRows
		eng.Faults = flt
		eng.RetryMax = req.RetryMax
		eng.RetryBackoff = durationNs(req.RetryBackoffNs)
		rb, err = eng.RunBlockCtx(ctx, req.Block, req.Plans, res, observe, req.AnyPoint, upstream)
	} else {
		eng := engine.New(st.an, st.db, nil)
		eng.Workers = req.Workers
		eng.MaxRows = req.MaxRows
		eng.Faults = flt
		eng.RetryMax = req.RetryMax
		eng.RetryBackoff = durationNs(req.RetryBackoffNs)
		rb, err = eng.RunBlockCtx(ctx, req.Block, req.Plans, res, observe, req.AnyPoint, upstream)
	}
	if err != nil {
		if ctx.Err() != nil {
			// The coordinator hung up (lease expiry or run cancellation);
			// the status is moot, the response will not be read.
			return nil, http.StatusServiceUnavailable, ctx.Err()
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	resp := &WorkerRunResponse{Rows: rb.Rows, Retries: rb.Retries}
	if resp.Out, err = encodeTable(rb.Out); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	if len(rb.Materialized) > 0 {
		resp.Materialized = make(map[string][]byte, len(rb.Materialized))
		for name, tbl := range rb.Materialized {
			if resp.Materialized[name], err = encodeTable(tbl); err != nil {
				return nil, http.StatusInternalServerError, err
			}
		}
	}
	if rb.Observed != nil {
		var buf bytes.Buffer
		if _, err := rb.Observed.WriteTo(&buf); err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.Shard = buf.Bytes()
	}
	for _, fs := range rb.Degraded {
		resp.Degraded = append(resp.Degraded, WireFailedStat{Stat: fs.Stat, Err: fs.Err.Error()})
	}
	return resp, 0, nil
}

// state returns (building once) the workflow's analysis and generated
// data. Both are pure functions of (wf, scale), so every worker — and the
// coordinator's own in-process fallback — sees identical tables.
func (wk *Worker) state(wf int, scale float64) (*workerState, error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	key := workerKey{wf: wf, scale: scale}
	if st, ok := wk.states[key]; ok {
		return st, nil
	}
	w, err := suite.Get(wf)
	if err != nil {
		return nil, err
	}
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		return nil, err
	}
	st := &workerState{an: an, db: w.Data(scale), css: make(map[css.Options]*css.Result)}
	wk.states[key] = st
	return st, nil
}

// cssResult returns (building once per option set) the workflow's CSS
// result, which the physical compiler needs to bind statistic taps.
func (wk *Worker) cssResult(st *workerState, opt css.Options) (*css.Result, error) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if res, ok := st.css[opt]; ok {
		return res, nil
	}
	res, err := css.Generate(st.an, opt)
	if err != nil {
		return nil, err
	}
	st.css[opt] = res
	return res, nil
}

// encodeTable renders a table into its canonical wire blob.
func encodeTable(t *data.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := data.WriteTable(&buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeTable parses a canonical table blob (nil-presence aware).
func decodeTable(blob []byte) (*data.Table, error) {
	if len(blob) == 0 {
		return nil, errors.New("serve: empty table blob")
	}
	return data.ReadTable(bytes.NewReader(blob))
}

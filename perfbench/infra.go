package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/stats"
)

// maxDatasets bounds how many datasets one workflow gets per run.
const maxDatasets = 16

// workflowSeed replaces a suite workflow's data seed with one drawn from
// the workload seed and the dataset index k. Seed 0, dataset 0 reproduces
// the suite's own data.
func workflowSeed(seed int64, id, k int) int64 {
	return (seed*maxDatasets+int64(k))*1_000_003 + int64(id)*7919
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// httpServer is an in-process HTTP server on a loopback port.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// startHTTP serves h on a fresh loopback port until close is called.
func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// daemon is an `etlopt serve` instance (serve.New, default options) over a
// fresh statistics catalog directory.
type daemon struct {
	*httpServer
	dir    string
	client *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	cat, err := serve.OpenCatalog(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(cat, nil, serve.Options{})
	if err != nil {
		return nil, err
	}
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &daemon{httpServer: hs, dir: dir, client: &http.Client{Timeout: time.Minute}}, nil
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.httpServer.close()
	os.RemoveAll(d.dir)
}

// reply is one daemon response.
type reply struct {
	status int
	hit    bool
	body   []byte
	lat    time.Duration
}

// post sends one request and reads the whole response; lat covers both.
func (d *daemon) post(path, ctype string, body []byte) (reply, error) {
	start := time.Now()
	resp, err := d.client.Post(d.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", body: out, lat: time.Since(start)}, nil
}

func (d *daemon) observe(wf string, store []byte) (reply, error) {
	return d.post("/v1/observe?workflow="+wf, "application/octet-stream", store)
}

func (d *daemon) optimize(wf string) (reply, error) {
	return d.post("/v1/optimize", "application/json", []byte(`{"workflow":"`+wf+`"}`))
}

func (d *daemon) estimate(wf string) (reply, error) {
	return d.post("/v1/estimate", "application/json", []byte(`{"workflow":"`+wf+`"}`))
}

// counter reads one unlabelled counter from the daemon's /metrics.
func (d *daemon) counter(name string) (float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok && k == name {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("metrics: no %s", name)
}

// encodeStore is the canonical binary stream of a statistics store.
func encodeStore(st *stats.Store) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeTables renders every table with the data package's wire codec.
func encodeTables(ts map[string]*data.Table) (map[string][]byte, error) {
	out := make(map[string][]byte, len(ts))
	for name, t := range ts {
		var buf bytes.Buffer
		if err := data.WriteTable(&buf, t); err != nil {
			return nil, err
		}
		out[name] = buf.Bytes()
	}
	return out, nil
}

// sameBytes compares two encoded table sets.
func sameBytes(what string, got, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d tables, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			return fmt.Errorf("%s: table %s differs from the in-process reference", what, name)
		}
	}
	return nil
}

// sameSinks checks that two runs produced the same sinks as row multisets,
// matching columns by attribute since join orders may permute them.
func sameSinks(got, want map[string]*data.Table) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sinks, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("sink %s missing", name)
		}
		if err := sameRows(g, w); err != nil {
			return fmt.Errorf("sink %s: %w", name, err)
		}
	}
	return nil
}

func sameRows(got, want *data.Table) error {
	if len(got.Rows) != len(want.Rows) || len(got.Attrs) != len(want.Attrs) {
		return fmt.Errorf("%d rows × %d columns, want %d × %d", len(got.Rows), len(got.Attrs), len(want.Rows), len(want.Attrs))
	}
	perm := make([]int, len(want.Attrs))
	identity := make([]int, len(want.Attrs))
	for i, a := range want.Attrs {
		identity[i] = i
		if perm[i] = got.Col(a); perm[i] < 0 {
			return fmt.Errorf("column %v missing", a)
		}
	}
	if multisetHash(got, perm) != multisetHash(want, identity) {
		return errors.New("row multisets differ")
	}
	return nil
}

// multisetHash is an order-independent digest of a table's rows with the
// columns taken in the given order: the sums of two independent 64-bit
// hashes of every row. Equal multisets always agree; different ones
// collide with negligible probability, and it costs one pass instead of a
// sort.
func multisetHash(t *data.Table, cols []int) [2]uint64 {
	var sum [2]uint64
	for _, row := range t.Rows {
		h1, h2 := uint64(14695981039346656037), uint64(0x9e3779b97f4a7c15)
		for _, c := range cols {
			v := uint64(row[c])
			h1 = (h1 ^ v) * 1099511628211
			h2 = mix64(h2 ^ v)
		}
		sum[0] += mix64(h1)
		sum[1] += h2
	}
	return sum
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

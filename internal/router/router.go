// Package router is the cluster front tier of the millid simulation
// service: a consistent-hashing reverse proxy that spreads jobs across N
// worker nodes. The routing key is the job's deterministic content-hash id
// (server.CanonicalID), so identical requests always land on the same node
// — that node's singleflight and local LRU then collapse them onto one
// simulation, and the shared store tier makes the result a hit on every
// other node too.
//
// The ring hashes each node under a fixed number of virtual replicas, so
// membership changes (SetNodes) move only the keys owned by the changed
// nodes; results for moved keys survive in the shared store. A background
// probe marks nodes unhealthy on failed /healthz checks (a draining node's
// 503 counts as unhealthy, which is how a node leaves gracefully: drain it
// and the router stops routing to it). Requests to a failed node are
// retried on the ring's successor nodes with bounded backoff.
package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/server"
)

// hash64 maps s onto the ring's key space.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring of node URLs with virtual replicas.
type Ring struct {
	replicas int
	nodes    []string
	hashes   []uint64 // sorted ring positions
	owner    []int    // owner[i] = index into nodes for hashes[i]
}

// NewRing places each node at replicas positions (replicas <= 0 defaults to
// 64 — enough that removing one of a handful of nodes moves close to the
// ideal 1/N of the key space).
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &Ring{replicas: replicas, nodes: append([]string(nil), nodes...)}
	type point struct {
		h     uint64
		owner int
	}
	points := make([]point, 0, len(nodes)*replicas)
	for i, n := range r.nodes {
		for v := 0; v < replicas; v++ {
			points = append(points, point{hash64(fmt.Sprintf("%s#%d", n, v)), i})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].h < points[j].h })
	r.hashes = make([]uint64, len(points))
	r.owner = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.h
		r.owner[i] = p.owner
	}
	return r
}

// Nodes returns the ring's membership in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Lookup returns every node in preference order for key: the clockwise
// owner first, then each distinct successor — the retry order on node
// failure.
func (r *Ring) Lookup(key string) []string {
	if len(r.hashes) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if start == len(r.hashes) {
		start = 0
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i := 0; i < len(r.hashes) && len(out) < len(r.nodes); i++ {
		o := r.owner[(start+i)%len(r.hashes)]
		if !seen[o] {
			seen[o] = true
			out = append(out, r.nodes[o])
		}
	}
	return out
}

// Options tunes a Router.
type Options struct {
	// Nodes are the worker base URLs (e.g. http://host:8177).
	Nodes []string
	// Replicas is the ring's virtual-replica count; 0 means 64.
	Replicas int
	// Base is the architecture configuration the workers serve on top of;
	// the router must canonicalize requests identically to compute the same
	// job ids. Workers and router must agree on it.
	Base arch.Params
	// HealthInterval is the /healthz probe period; 0 means 2s.
	HealthInterval time.Duration
	// RetryBackoff is the pause before the first retry, doubling per
	// attempt; 0 means 50ms.
	RetryBackoff time.Duration
	// MaxAttempts bounds how many nodes one request may try; 0 means every
	// node once.
	MaxAttempts int
	// Transport overrides the proxy transport (in-process tests and the SLA
	// experiment); nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Router is the cluster front tier. Create with New; it is an http.Handler.
// Close stops the health probes.
type Router struct {
	base    arch.Params
	client  *http.Client
	backoff time.Duration
	maxTry  int

	mu      sync.Mutex
	ring    *Ring
	healthy map[string]bool

	stopOnce sync.Once
	stop     chan struct{}

	routed, retries, failovers, proxyErrors atomic.Uint64

	reg *metrics.Registry
	mux *http.ServeMux
}

// New returns a router over the given worker nodes and starts its health
// probe loop. Nodes start healthy; the first probe round corrects that
// within HealthInterval.
func New(o Options) *Router {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = len(o.Nodes)
	}
	rt := &Router{
		base:    o.Base,
		client:  &http.Client{Transport: o.Transport},
		backoff: o.RetryBackoff,
		maxTry:  o.MaxAttempts,
		ring:    NewRing(o.Nodes, o.Replicas),
		healthy: make(map[string]bool, len(o.Nodes)),
		stop:    make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	for _, n := range o.Nodes {
		rt.healthy[n] = true
	}
	rt.reg = metrics.NewRegistry()
	rt.registerMetrics()

	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardByKey(w, r, r.PathValue("id"), nil)
	})
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardByKey(w, r, r.PathValue("id"), nil)
	})
	rt.mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		rt.forwardAny(w, r)
	})
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)

	go rt.healthLoop(o.HealthInterval)
	return rt
}

func (rt *Router) registerMetrics() {
	r := rt.reg
	r.Gauge("router.nodes", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return float64(len(rt.ring.nodes))
	})
	r.Gauge("router.nodes_healthy", func() float64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		n := 0
		for _, ok := range rt.healthy {
			if ok {
				n++
			}
		}
		return float64(n)
	})
	r.Counter("router.requests_routed", rt.routed.Load)
	r.Counter("router.retries", rt.retries.Load)
	r.Counter("router.failovers", rt.failovers.Load)
	r.Counter("router.proxy_errors", rt.proxyErrors.Load)
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the health probe loop (idempotent).
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// SetNodes replaces the membership: the ring is rebuilt so only keys owned
// by changed nodes move (their cached results survive in the shared store
// tier). Unknown nodes start healthy until the next probe round.
func (rt *Router) SetNodes(nodes []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ring = NewRing(nodes, rt.ring.replicas)
	healthy := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if h, ok := rt.healthy[n]; ok {
			healthy[n] = h
		} else {
			healthy[n] = true
		}
	}
	rt.healthy = healthy
}

// Metrics returns the router-level snapshot served at /metrics.
func (rt *Router) Metrics() metrics.Snapshot { return rt.reg.Snapshot() }

func (rt *Router) healthLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probe()
		}
	}
}

// probe marks each node healthy iff /healthz answers 200 (a draining node's
// 503 makes it leave the rotation).
func (rt *Router) probe() {
	rt.mu.Lock()
	nodes := rt.ring.Nodes()
	rt.mu.Unlock()
	for _, n := range nodes {
		ok := rt.probeNode(n)
		rt.mu.Lock()
		if _, known := rt.healthy[n]; known { // membership may have changed
			rt.healthy[n] = ok
		}
		rt.mu.Unlock()
	}
}

func (rt *Router) probeNode(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// prefer returns the candidate nodes for key in retry order: the ring's
// preference list with unhealthy nodes demoted to the tail (still tried
// last — with every node marked down, guessing beats refusing).
func (rt *Router) prefer(key string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	pref := rt.ring.Lookup(key)
	up := make([]string, 0, len(pref))
	down := make([]string, 0, 1)
	for _, n := range pref {
		if rt.healthy[n] {
			up = append(up, n)
		} else {
			down = append(down, n)
		}
	}
	return append(up, down...)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", fmt.Sprintf(format, args...))
}

// handleSubmit canonicalizes the body to recover the deterministic job id
// and routes by it.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return
	}
	id, err := server.CanonicalID(rt.base, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.forwardByKey(w, r, id, body)
}

// forwardByKey proxies r to the key's preferred nodes, retrying transport
// failures and 5xx gateway-ish responses with exponential backoff.
func (rt *Router) forwardByKey(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	nodes := rt.prefer(key)
	if len(nodes) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no worker nodes configured")
		return
	}
	if len(nodes) > rt.maxTry {
		nodes = nodes[:rt.maxTry]
	}
	rt.routed.Add(1)
	var lastErr error
	for attempt, node := range nodes {
		if attempt > 0 {
			rt.retries.Add(1)
			select {
			case <-r.Context().Done():
				writeError(w, http.StatusGatewayTimeout, "client gone: %v", r.Context().Err())
				return
			case <-time.After(rt.backoff << (attempt - 1)):
			}
		}
		ok, err := rt.tryNode(w, r, node, body)
		if ok {
			if attempt > 0 {
				rt.failovers.Add(1)
			}
			return
		}
		lastErr = err
	}
	rt.proxyErrors.Add(1)
	writeError(w, http.StatusBadGateway, "all %d candidate nodes failed; last: %v", len(nodes), lastErr)
}

// tryNode forwards once. It reports done=true when a response was relayed
// to the client (including application errors like 429 — those are the
// node's answer, not a routing failure). Transport errors and 503s (a
// draining or overloaded node that another replica can serve) report
// done=false so the caller fails over.
func (rt *Router) tryNode(w http.ResponseWriter, r *http.Request, node string, body []byte) (done bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.Path, rd)
	if err != nil {
		return false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("%s: %s", node, resp.Status)
	}
	relay(w, resp)
	return true, nil
}

func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// forwardAny proxies r to the first node that answers (health-ordered).
func (rt *Router) forwardAny(w http.ResponseWriter, r *http.Request) {
	rt.forwardByKey(w, r, "any:"+r.URL.Path, nil)
}

// handleList fans GET /v1/jobs out to every healthy node and merges the
// records, newest first (the per-node listings are already newest-first).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	nodes := rt.ring.Nodes()
	healthy := make(map[string]bool, len(rt.healthy))
	for n, h := range rt.healthy {
		healthy[n] = h
	}
	rt.mu.Unlock()

	type rec struct {
		raw         json.RawMessage
		submittedAt time.Time
	}
	var all []rec
	for _, n := range nodes {
		if !healthy[n] {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n+"/v1/jobs", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxItemsBytes))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var raws []json.RawMessage
		if json.Unmarshal(data, &raws) != nil {
			continue
		}
		for _, raw := range raws {
			var meta struct {
				SubmittedAt time.Time `json:"submitted_at"`
			}
			json.Unmarshal(raw, &meta)
			all = append(all, rec{raw: raw, submittedAt: meta.SubmittedAt})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].submittedAt.After(all[j].submittedAt) })
	out := make([]json.RawMessage, len(all))
	for i, a := range all {
		out[i] = a.raw
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// maxItemsBytes bounds one node's job-listing response in the fan-in.
const maxItemsBytes = 64 << 20

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	up := 0
	total := len(rt.ring.nodes)
	for _, ok := range rt.healthy {
		if ok {
			up++
		}
	}
	rt.mu.Unlock()
	code := http.StatusOK
	status := "ok"
	if up == 0 {
		code = http.StatusServiceUnavailable
		status = "no healthy nodes"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"status\": %q,\n  \"nodes_healthy\": %s,\n  \"nodes\": %s\n}\n",
		status, strconv.Itoa(up), strconv.Itoa(total))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	data, err := rt.reg.Snapshot().JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

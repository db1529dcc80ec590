package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rescache"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workloads"
)

// serveExperiment is the cold job's experiment: one verified millipede
// simulation of the count kernel whose result body carries the run's exact
// counters. One job size for every cold job keeps cold_p50_ms and
// cold_p90_ms off any boundary between job sizes, and the single
// simulation never fans out over the harness worker pool.
const serveExperiment = "perfbench-count"

func init() {
	harness.Register(harness.ExperimentInfo{
		Name:        serveExperiment,
		Description: "one verified millipede simulation of the count kernel, reporting its exact work counters",
		Uses:        []string{"scale", "seed"},
	}, func(ctx context.Context, p arch.Params, o harness.ExpOptions) (harness.ExperimentResult, error) {
		if err := ctx.Err(); err != nil {
			return harness.ExperimentResult{}, err
		}
		b := workloads.CountBench()
		res, _, err := harness.RunWith(harness.ArchMillipede, b, p, harness.RecordsFor(b, o.Scale), harness.Options{Seed: o.Seed})
		if err != nil {
			return harness.ExperimentResult{}, err
		}
		counters := map[string]float64{}
		addRunCounters(counters, res.Metrics, res.SkippedEdges, p.ChannelHz)
		fig := &harness.Figure{Name: "perfbench cold job: millipede/count exact counters",
			Series: sortedKeys(counters), Rows: []harness.Row{{Bench: b.Name(), Values: counters}}}
		return harness.ExperimentResult{Figures: []*harness.Figure{fig}}, nil
	})
}

// Serve workload shape. Each client sends its cold jobs one after another
// and follows each with warmPerCold repeats of its own finished jobs; the
// first repeat goes straight to the job's non-owner node, so the shared
// store serves it (one warm job in twenty), the rest go through the router
// to the owner's local cache.
const (
	serveScale   = 0.1
	coldPerPass  = 100
	warmPerCold  = 20
	tinyCold     = 4
	pollInterval = time.Millisecond
	nodeWorkers  = 2
)

const (
	routerURL = "http://router"
	storeURL  = "http://store"
)

var nodeURLs = []string{"http://node-a", "http://node-b"}

// coldJob is one distinct job of the pass and the node that owns it.
type coldJob struct {
	body  []byte
	id    string
	owner int
}

// serveWorkload builds the in-process cluster: two millid worker nodes,
// both mounting one shared store over its HTTP wire form, behind the
// consistent-hash router, all connected by an in-process transport (no
// sockets). Load comes from min(2, nproc) closed-loop client goroutines,
// since a millid caller waits for its result before it sends the next job.
//
// Cold jobs are dealt so that a node never runs more than one simulation
// at a time; its second pool worker is there for store-tier hits, which
// millid routes through the job queue. With one pool worker a cross-node
// repeat waits for whatever simulation the node is running, and warm_p99_ms
// then measures how the two clients' cycles happen to line up rather than
// the store tier (README.md, "Store hits queue behind simulations").
func serveWorkload(spec passSpec) (pass, error) {
	base := arch.Default()
	tr := &inprocTransport{handlers: map[string]http.Handler{}}
	client := &http.Client{Transport: tr}
	store := rescache.NewStore(0, 0)
	tr.handlers[storeURL] = store.Handler()
	var nodes []*server.Server
	for _, u := range nodeURLs {
		s := server.New(base, server.Options{Workers: nodeWorkers, Shared: rescache.NewHTTPTier(storeURL, client)})
		tr.handlers[u] = s
		nodes = append(nodes, s)
	}
	rt := router.New(router.Options{
		Nodes: nodeURLs, Base: base, Transport: tr,
		HealthInterval: time.Hour, // in-process nodes never fail; keep probes out of the pass
		RetryBackoff:   time.Millisecond,
	})
	tr.handlers[routerURL] = rt
	teardown := func() {
		rt.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, s := range nodes {
			s.Drain(ctx)
		}
	}

	nClients := min(2, runtime.NumCPU())
	cold := coldPerPass
	if spec.Tiny {
		cold = tinyCold
	}
	plan, err := planJobs(base, spec.Seed, nClients, cold)
	if err != nil {
		teardown()
		return pass{}, err
	}
	warm, err := makeJob(base, mix(spec.Seed, "warm-up", 0))
	if err != nil {
		teardown()
		return pass{}, err
	}
	for _, jobs := range plan {
		for _, j := range jobs {
			if j.id == warm.id {
				teardown()
				return pass{}, fmt.Errorf("warm-up job collides with a timed job")
			}
		}
	}
	c := &serveClient{http: client}
	if _, err := c.cold(warm, 0); err != nil {
		teardown()
		return pass{}, fmt.Errorf("warm-up: %w", err)
	}
	if _, _, err := c.warm(routerURL, warm.body, warm.id, 0); err != nil {
		teardown()
		return pass{}, fmt.Errorf("warm-up: %w", err)
	}

	timed := func(rec *passRecord, tracer *tracer) error {
		before := sumSnapshots(nodes)
		results := make([]clientResult, nClients)
		var wg sync.WaitGroup
		for i := range plan {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cl := &serveClient{http: client, tr: tracer, corrupt: spec.Corrupt && i == 0}
				results[i] = cl.loop(plan[i], mix(spec.Seed, "client", i))
			}(i)
		}
		wg.Wait()
		delta := metrics.Diff(sumSnapshots(nodes), before)

		for _, r := range results {
			rec.ColdMS = append(rec.ColdMS, r.coldMS...)
			rec.WarmMS = append(rec.WarmMS, r.warmMS...)
			rec.Attempted += r.attempted
			for _, f := range r.failures {
				rec.fail("%s", f)
			}
			for k, v := range r.counters {
				rec.Counters[k] += v
			}
			rec.Distinct += len(r.bodies)
			rec.Sims += len(r.coldMS)
		}
		// Warm jobs never simulate: every simulation of the pass is a cold job.
		sims := delta.Value("server.sims_run")
		if int(sims) != cold {
			rec.fail("serve: %v simulations ran for %d cold jobs", sims, cold)
		}
		for _, name := range []string{"server.sims_run", "server.cache_hits", "server.cache_shared_hits",
			"server.cache_misses", "server.jobs_rejected", "server.jobs_failed"} {
			rec.Counters[name] = delta.Value(name)
		}
		return nil
	}
	return pass{timed: timed, teardown: teardown}, nil
}

// planJobs draws distinct cold jobs from the seed and deals each to the
// client numbered by its owner node, until every client has its share. With
// two clients each node's pool serves one client, so cold jobs never queue
// behind each other and the cold percentiles measure one job size.
func planJobs(base arch.Params, seed uint64, clients, cold int) ([][]coldJob, error) {
	ring := router.NewRing(nodeURLs, 0)
	owner := map[string]int{}
	for i, u := range nodeURLs {
		owner[u] = i
	}
	plan := make([][]coldJob, clients)
	want := cold / clients
	filled := 0
	for k := 0; filled < clients; k++ {
		if k > 100*cold {
			return nil, fmt.Errorf("could not deal %d cold jobs over %d clients", cold, clients)
		}
		j, err := makeJob(base, mix(seed, "job", k))
		if err != nil {
			return nil, err
		}
		j.owner = owner[ring.Lookup(j.id)[0]]
		c := j.owner % clients
		if len(plan[c]) < want {
			plan[c] = append(plan[c], j)
			if len(plan[c]) == want {
				filled++
			}
		}
	}
	return plan, nil
}

func makeJob(base arch.Params, seed uint64) (coldJob, error) {
	body := []byte(fmt.Sprintf(`{"experiment":%q,"scale":%g,"seed":%d}`, serveExperiment, serveScale, seed))
	id, err := server.CanonicalID(base, body)
	if err != nil {
		return coldJob{}, err
	}
	return coldJob{body: body, id: id}, nil
}

// serveClient is one closed-loop millid caller.
type serveClient struct {
	http    *http.Client
	tr      *tracer
	corrupt bool
}

type clientResult struct {
	coldMS, warmMS []float64
	attempted      int
	failures       []string
	counters       map[string]float64
	bodies         map[string][]byte
}

func (r *clientResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// loop runs one client's share of the pass: each cold job, then its warm
// repeats. Every warm and cross-node body must be byte-identical to the
// cold body of the same id.
func (c *serveClient) loop(jobs []coldJob, seed uint64) clientResult {
	res := clientResult{counters: map[string]float64{}, bodies: map[string][]byte{}}
	rng := seed
	var done []coldJob
	for _, j := range jobs {
		res.attempted++
		sp := c.tr.start("serve.cold_job", 0)
		t0 := time.Now()
		body, err := c.cold(j, sp.id())
		ms := msSince(t0)
		sp.end()
		if err != nil {
			res.fail("cold job %s: %v", j.id[:12], err)
			continue
		}
		counters, err := bodyCounters(body)
		if err != nil {
			res.fail("cold job %s: %v", j.id[:12], err)
			continue
		}
		for k, v := range counters {
			res.counters[k] += v
		}
		res.coldMS = append(res.coldMS, ms)
		res.bodies[j.id] = body
		done = append(done, j)

		for w := 0; w < warmPerCold; w++ {
			target, node := j, routerURL
			if w == 0 {
				node = nodeURLs[1-j.owner] // the store tier answers the non-owner
			} else {
				rng = rng*6364136223846793005 + 1442695040888963407
				target = done[int((rng>>33)%uint64(len(done)))]
			}
			res.attempted++
			sp := c.tr.start("serve.warm_job", 0)
			t0 := time.Now()
			got, cached, err := c.warm(node, target.body, target.id, sp.id())
			ms := msSince(t0)
			sp.end()
			if err != nil {
				res.fail("warm job %s via %s: %v", target.id[:12], node, err)
				continue
			}
			if c.corrupt {
				got = append([]byte("corrupted "), got...)
				c.corrupt = false
			}
			if !bytes.Equal(got, res.bodies[target.id]) {
				res.fail("warm job %s via %s: body differs from the cold body", target.id[:12], node)
				continue
			}
			if w == 0 && !cached {
				res.fail("warm job %s via %s: not served from the shared store", target.id[:12], node)
				continue
			}
			res.warmMS = append(res.warmMS, ms)
		}
	}
	return res
}

// statusBody is the subset of millid's job status the client reads.
type statusBody struct {
	Status      string     `json:"status"`
	Error       string     `json:"error"`
	Cached      bool       `json:"cached"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
}

// cold submits a job that has to simulate, follows it through the router
// every pollInterval until it finishes, and fetches its result body.
func (c *serveClient) cold(j coldJob, parent uint64) ([]byte, error) {
	st, err := c.submit("serve.submit", routerURL, j.body, parent)
	if err != nil {
		return nil, err
	}
	if st.Status == "done" {
		return nil, fmt.Errorf("cold job was already done (cached=%v)", st.Cached)
	}
	if st, err = c.follow(routerURL, j.id, st, parent, func() { time.Sleep(pollInterval) }); err != nil {
		return nil, err
	}
	if st.StartedAt != nil && st.FinishedAt != nil {
		c.tr.record("serve.queue_wait", parent, st.SubmittedAt, *st.StartedAt)
		c.tr.record("serve.run", parent, *st.StartedAt, *st.FinishedAt)
	}
	return c.result("serve.result", routerURL, j.id, parent)
}

// warm resubmits a finished job to node and fetches its body from the same
// place. Through the router the owner answers from its job record at once.
// Straight to the non-owner node, the job queues and is answered from the
// shared store tier without simulating; that takes tens of microseconds, so
// the client re-polls after a yield instead of a sleep.
func (c *serveClient) warm(node string, body []byte, id string, parent uint64) ([]byte, bool, error) {
	name := "serve.warm_submit"
	if node != routerURL {
		name = "store.hit"
	}
	sp := c.tr.start(name, parent)
	st, err := c.submit("serve.warm_post", node, body, sp.id())
	if err == nil {
		st, err = c.follow(node, id, st, sp.id(), runtime.Gosched)
	}
	sp.end()
	if err != nil {
		return nil, false, err
	}
	data, err := c.result("serve.warm_result", node, id, parent)
	return data, st.Cached, err
}

// follow polls a job's status on node, calling wait before each poll,
// until the job leaves the queued and running states; it must end done.
func (c *serveClient) follow(node, id string, st statusBody, parent uint64, wait func()) (statusBody, error) {
	for st.Status == "queued" || st.Status == "running" {
		wait()
		sp := c.tr.start("serve.poll", parent)
		code, data, err := c.do(http.MethodGet, node+"/v1/jobs/"+id, nil)
		sp.end()
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("GET status: %d: %s", code, bytes.TrimSpace(data))
		}
		st = statusBody{}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, fmt.Errorf("GET status: %v", err)
		}
	}
	if st.Status != "done" {
		return st, fmt.Errorf("job %s: %s", st.Status, st.Error)
	}
	return st, nil
}

func (c *serveClient) submit(span, node string, body []byte, parent uint64) (statusBody, error) {
	sp := c.tr.start(span, parent)
	code, data, err := c.do(http.MethodPost, node+"/v1/jobs", body)
	sp.end()
	if err != nil {
		return statusBody{}, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return statusBody{}, fmt.Errorf("POST: %d: %s", code, bytes.TrimSpace(data))
	}
	var st statusBody
	if err := json.Unmarshal(data, &st); err != nil {
		return statusBody{}, fmt.Errorf("POST: %v", err)
	}
	return st, nil
}

func (c *serveClient) result(span, node, id string, parent uint64) ([]byte, error) {
	sp := c.tr.start(span, parent)
	code, data, err := c.do(http.MethodGet, node+"/v1/jobs/"+id+"/result", nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET result: %d: %s", code, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *serveClient) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// bodyCounters extracts the exact counters a cold job's result body
// carries, and checks the simulation actually ran.
func bodyCounters(body []byte) (map[string]float64, error) {
	var rb struct {
		Figures []struct {
			Rows []struct {
				Values map[string]float64 `json:"values"`
			} `json:"rows"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		return nil, fmt.Errorf("result body: %v", err)
	}
	if len(rb.Figures) != 1 || len(rb.Figures[0].Rows) != 1 {
		return nil, fmt.Errorf("result body: want one figure with one row")
	}
	v := rb.Figures[0].Rows[0].Values
	if v["run.cycles"] <= 0 || v["run.insts"] <= 0 {
		return nil, fmt.Errorf("result body: no simulated cycles or instructions")
	}
	return v, nil
}

// sumSnapshots adds the worker nodes' server metrics sample by sample.
func sumSnapshots(nodes []*server.Server) metrics.Snapshot {
	var out metrics.Snapshot
	for _, n := range nodes {
		for _, s := range n.Metrics().Samples {
			if s.Kind == metrics.Histogram {
				continue
			}
			prev, _ := out.Get(s.Name)
			s.Value += prev.Value
			out.Put(s)
		}
	}
	return out
}

// inprocTransport dispatches each request to the in-process handler of its
// origin, so the cluster is measured without loopback socket costs.
type inprocTransport struct {
	handlers map[string]http.Handler
}

func (t *inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Scheme+"://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process handler for %s://%s", req.URL.Scheme, req.URL.Host)
	}
	rec := &recorder{hdr: http.Header{}}
	h.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		StatusCode: rec.code,
		Status:     fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  rec.hdr,
		Body:    io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		Request: req,
	}, nil
}

// recorder is a minimal in-memory http.ResponseWriter.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

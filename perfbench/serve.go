package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/scenario"
	"pegflow/internal/server"
)

// The serve workload is an open loop: independent users POST scenario
// documents at seeded Poisson arrival times — exponential gaps at one
// offered mean rate, below the server's capacity — over at most nproc
// connections, whether or not earlier requests have finished. The seed
// orders three request classes, which come in exact shares:
//
//   - hit: one of the documents primed during set-up, so the result cache
//     answers and nothing is simulated;
//   - seed-miss: a primed shape (workload params) at a new seed, so the
//     result cache misses and the plan cache is warm;
//   - shape-miss: new workload params, so every cache is cold.
//
// No record of real pegflow serve traffic exists, so the shares are an
// assumption, chosen from how the paper's study is used: most requests add
// replicates (new seeds) to a study already run, as the paper repeats each
// Fig. 4 point; fewer re-read a finished document (a shared link, a
// refreshed report), which the result cache answers; new study designs
// (new workload params) are rarest. The median request is a seed-miss,
// whose time is mostly simulation; shape-misses are the slowest class, and
// hits measure the cached path.
//
// serveRate is a fixed share of the capacity `run.sh saturate` measures:
// the same mix sent closed loop over nproc connections. On a 2-vCPU Intel
// Xeon host that completed about 1040 requests per second, so the offered
// rate is about a fifth (19%) of it.
const (
	serveRate     = 200 // offered mean requests per second
	hitDocs       = 8
	hitShare      = 0.30
	seedMissShare = 0.60 // shape-miss takes the rest
	// maxLagMs bounds how late (p99) the generator may hand a request
	// over after it was due; beyond it the run is invalid, not slow. The
	// generator shares the CPUs with the server, and Go preempts a busy
	// goroutine after 10 ms, so a wait of one or two such slices is
	// expected; more means the generator could not keep up.
	maxLagMs = 25.0
	// spinWindow is how long before a due time the generator stops
	// sleeping and yields instead.
	spinWindow = 1000 * time.Microsecond
)

// request is one scheduled POST and what came back.
type request struct {
	class string
	doc   int
	due   time.Duration // offset from the schedule's start

	lag    time.Duration // when the generator handed it over, minus due
	sent   time.Duration
	lines  []time.Duration // arrival time of every NDJSON line
	status int
	body   []byte
	err    error
}

func (q *request) latency() time.Duration { return q.lines[len(q.lines)-1] - q.due }

func (q *request) ok(want []byte) bool {
	return q.err == nil && q.status == http.StatusOK && len(q.lines) >= 2 && bytes.Equal(q.body, want)
}

// serveInputs generates one round's documents and request schedule.
// Primed shapes have fixed sizes, so the work per class does not depend on
// the seed; the seed and the round pick document seeds, the order of the
// classes and the arrival times.
func serveInputs(seed uint64, round int, seconds time.Duration) ([]doc, []request) {
	r := newRand(seed, 1000+uint64(round))
	var docs []doc
	for i := 0; i < hitDocs; i++ {
		docs = append(docs, serveDoc(fmt.Sprintf("hit-%d", i), shapeClusters(i), r.Uint32()))
	}
	n := int(seconds.Seconds() * serveRate)
	classes := make([]string, n)
	for i := range classes {
		switch f := float64(i) / float64(n); {
		case f < hitShare:
			classes[i] = "hit"
		case f < hitShare+seedMissShare:
			classes[i] = "seed-miss"
		default:
			classes[i] = "shape-miss"
		}
	}
	r.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	reqs := make([]request, n)
	var due time.Duration
	for i, class := range classes {
		q := &reqs[i]
		q.class, q.due = class, due
		due += time.Duration(r.ExpFloat64() * float64(time.Second) / serveRate)
		switch class {
		case "hit":
			q.doc = r.IntN(hitDocs)
		case "seed-miss":
			q.doc = len(docs)
			docs = append(docs, serveDoc(fmt.Sprintf("seed-miss-%d", i), shapeClusters(r.IntN(hitDocs)), r.Uint32()))
		default:
			// Cluster counts above every primed shape's: a new shape.
			q.doc = len(docs)
			docs = append(docs, serveDoc(fmt.Sprintf("shape-miss-%d", i), 3000+i, r.Uint32()))
		}
	}
	return docs, reqs
}

// shapeClusters is the cluster count of primed shape i.
func shapeClusters(i int) int { return 1000 + 250*i }

// liveServer is an in-process pegflow server on a loopback listener.
type liveServer struct {
	base   string
	hs     *http.Server
	done   chan error
	client *http.Client
}

func startServer(workers int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: server.New(server.Options{Workers: workers})},
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	for i := 0; ; i++ {
		if _, err := s.health(); err == nil {
			return s, nil
		} else if i == 100 {
			s.stop()
			return nil, fmt.Errorf("server never became healthy: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (s *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

func (s *liveServer) health() (server.HealthResponse, error) {
	var h server.HealthResponse
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, err
	}
	if !h.OK || h.Results == nil {
		return h, fmt.Errorf("healthz: not ok or no result cache")
	}
	return h, nil
}

// post sends one document and records the arrival time of every line.
func (s *liveServer) post(q *request, body []byte, start time.Time) {
	q.sent = time.Since(start)
	resp, err := s.client.Post(s.base+"/v1/scenarios/run", "application/json", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return
	}
	defer resp.Body.Close()
	q.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			q.lines = append(q.lines, time.Since(start))
			q.body = append(q.body, line...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			q.err = err
			break
		}
	}
	if len(q.lines) == 0 {
		q.lines = append(q.lines, time.Since(start))
	}
}

// serveSetup generates a round's inputs, parses and compiles them, starts a
// fresh server from a cold plan cache, waits for its first healthz OK and
// primes the hit documents.
func (r *run) serveSetup(workers, round int) ([]doc, []request, *liveServer, server.HealthResponse, error) {
	var h server.HealthResponse
	docs, reqs := serveInputs(r.seed, round, serveRound)
	if _, err := compileDocs(docs); err != nil {
		return nil, nil, nil, h, err
	}
	core.ResetPlanCache()
	s, err := startServer(workers)
	if err != nil {
		return nil, nil, nil, h, err
	}
	for i := 0; i < hitDocs; i++ {
		q := &request{}
		s.post(q, docs[i].body, time.Now())
		if q.err != nil || q.status != http.StatusOK {
			s.stop()
			return nil, nil, nil, h, fmt.Errorf("priming %s: status %d: %v", docs[i].name, q.status, q.err)
		}
	}
	if h, err = s.health(); err != nil {
		s.stop()
		return nil, nil, nil, h, err
	}
	return docs, reqs, s, h, nil
}

// serveRound is the length of one open-loop round. Each round runs its
// own schedule, with the same number of requests of each class, against a
// fresh server from a cold plan cache; at serveRate it sends 2000
// requests, so even one round's p99 has twenty beyond it.
const serveRound = 10 * time.Second

// round is one open-loop round's requests and counters.
type round struct {
	docs          []doc
	reqs          []request
	before, after server.HealthResponse
	rt            rtStats
	heapPeak      uint64
}

// roundCounters are the counters every round must move by the same amount.
type roundCounters struct {
	cache                 core.CacheStats
	hits, misses, evicted uint64
}

func roundDelta(rd round) roundCounters {
	b, a := rd.before.Results, rd.after.Results
	return roundCounters{
		cache:   cacheDelta(rd.before.Cache, rd.after.Cache),
		hits:    a.Hits - b.Hits,
		misses:  a.Misses - b.Misses,
		evicted: a.Evictions - b.Evictions,
	}
}

// serve runs the open loop in rounds; with -trace 1 it splits every
// request into layer phases by line arrival times, against a one-worker
// server.
func (r *run) serve() error {
	workers := runtime.NumCPU()
	if r.trace {
		workers = 1
		r.zeroLayers()
	}
	var setups, rss []float64
	var primedCache core.CacheStats
	var rounds []round
	mon := startRSS()
	defer mon.close()
	for k := 0; k < max(1, int(r.seconds/serveRound)); k++ {
		// Set-up is repeated (setupSamples times before the first round),
		// each time with a fresh server from a cold plan cache; every
		// repetition must leave the caches in the same state.
		var s *liveServer
		var rd round
		reps := 1
		if k == 0 {
			reps = setupSamples
		}
		for range reps {
			if s != nil {
				s.stop()
			}
			runtime.GC()
			before := core.PlanCacheStats()
			t0 := time.Now()
			var err error
			rd.docs, rd.reqs, s, rd.before, err = r.serveSetup(workers, k)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			delta := cacheDelta(before, core.PlanCacheStats())
			if len(setups) == 1 {
				primedCache = delta
			} else if delta != primedCache {
				r.fail("set-up %d is not cold: plan-cache deltas %+v, set-up 0 had %+v", len(setups)-1, delta, primedCache)
			}
			if res := rd.before.Results; res.Hits != 0 || res.Misses != uint64(hitDocs*4) {
				r.fail("set-up %d: primed result cache reads hits=%d misses=%d, want 0 and %d",
					len(setups)-1, res.Hits, res.Misses, hitDocs*4)
			}
		}
		mon.reset()
		err := openLoop(s, &rd)
		rss = append(rss, mon.peakMiB())
		s.stop()
		if err != nil {
			return err
		}
		if k > 0 && roundDelta(rd) != roundDelta(rounds[0]) {
			r.fail("round %d is not cold: counter deltas %+v, round 0 had %+v", k, roundDelta(rd), roundDelta(rounds[0]))
		}
		rounds = append(rounds, rd)
	}
	r.set("setup_s", "s", median(setups))

	// Every body must equal an uncached scenario.Run of its document.
	// Latency percentiles pool the requests of every round.
	var lat, firstCell, lags, walls, allocs []float64
	inSLO := 0
	byClass := map[string][]float64{}
	for _, rd := range rounds {
		docs := rd.docs
		want := map[int][]byte{}
		var end time.Duration
		for i := range rd.reqs {
			q := &rd.reqs[i]
			if _, ok := want[q.doc]; !ok {
				var err error
				if want[q.doc], err = referenceBody(docs[q.doc]); err != nil {
					return err
				}
			}
			r.attempted++
			ok := q.ok(want[q.doc])
			if !ok {
				r.failed++
				r.fail("request %d (%s, %s): status %d, err %v, body matches reference: %t",
					i, q.class, docs[q.doc].name, q.status, q.err, bytes.Equal(q.body, want[q.doc]))
			}
			l := q.latency()
			if ok && l <= serveSLO {
				inSLO++
			}
			lat = append(lat, ms(l))
			byClass[q.class] = append(byClass[q.class], ms(l))
			if len(q.lines) >= 2 {
				firstCell = append(firstCell, ms(q.lines[1]-q.due))
			}
			lags = append(lags, ms(q.lag))
			end = max(end, q.lines[len(q.lines)-1])
		}
		walls = append(walls, (end - rd.reqs[0].due).Seconds())
		allocs = append(allocs, float64(rd.rt.allocBytes)/(1<<20))
	}
	for _, c := range []string{"hit", "seed-miss", "shape-miss"} {
		fmt.Fprintf(os.Stderr, "perfbench: %-10s %4d requests, p50 %.2f ms, p99 %.2f ms\n",
			c, len(byClass[c]), median(byClass[c]), pctile(byClass[c], 0.99))
	}
	lagP99 := pctile(lags, 0.99)
	if lagP99 > maxLagMs {
		r.fail("the generator fell behind its schedule: lag p99 %.2f ms > %.0f ms", lagP99, maxLagMs)
	}
	r.checkPinned("serve")
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d requests, p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms\n",
		len(rounds), len(lat), median(lat), pctile(lat, 0.99), lagP99)

	if r.trace {
		r.serveLayers(rounds)
		r.layer("gen.lag_ms_p99", lagP99)
		return nil
	}
	r.set("wall_s", "s", median(walls))
	r.set("peak_rss_mib", "MiB", median(rss))
	r.set("alloc_mib", "MiB", median(allocs))
	r.set("req_ms_p50", "ms", median(lat))
	r.set("req_ms_p99", "ms", pctile(lat, 0.99))
	r.set("first_cell_ms_p50", "ms", median(firstCell))
	r.set("slo_pct", "%", 100*float64(inSLO)/float64(len(lat)))
	r.setOK()
	return nil
}

// openLoop sends the round's requests on schedule over nproc connections
// and records the runtime and healthz counters around them.
func openLoop(s *liveServer, rd *round) error {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	// The channel holds every request, so the generator never blocks on it.
	work := make(chan *request, len(rd.reqs))
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				s.post(q, rd.docs[q.doc].body, start)
			}
		}()
	}
	for i := range rd.reqs {
		q := &rd.reqs[i]
		// Sleep until shortly before the request is due, then yield until
		// it is: a timer alone wakes the generator up to a millisecond late.
		if d := q.due - time.Since(start) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Since(start) < q.due {
			runtime.Gosched()
		}
		q.lag = time.Since(start) - q.due
		work <- q
		metrics.Read(heap)
		rd.heapPeak = max(rd.heapPeak, heap[0].Value.Uint64())
	}
	close(work)
	wg.Wait()
	rt := readRuntime()
	rd.rt = rtStats{
		allocBytes:   rt.allocBytes - rt0.allocBytes,
		allocObjects: rt.allocObjects - rt0.allocObjects,
		gcCPU:        rt.gcCPU - rt0.gcCPU,
		totalCPU:     rt.totalCPU - rt0.totalCPU,
	}
	var err error
	rd.after, err = s.health()
	return err
}

// referenceBody is the NDJSON body scenario.Run gives for a document with
// no result cache.
func referenceBody(d doc) ([]byte, error) {
	c, err := compileDocs([]doc{d})
	if err != nil {
		return nil, err
	}
	lines, err := c[0].Run(scenario.RunOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", d.name, err)
	}
	var b bytes.Buffer
	for _, l := range lines {
		b.Write(l)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// serveLayers splits each request by line arrivals into spans that tile
// it from due time to footer: gen.lag (the generator handing the request
// over late, the harness's own measured share), server.queue (waiting for one of the
// nproc connections, all busy with earlier requests), server.header (sent
// to header line: admission, body read, parse, compile, fingerprint), the
// cell phase (header to last cell line; resultcache.read for hits,
// scenario.cells otherwise) and server.footer (last cell to footer).
// Counters are healthz deltas over the open loop.
func (r *run) serveLayers(rounds []round) {
	t := newTracer()
	var header, stream, hitLat, cellGaps []float64
	refused := 0
	var heapPeak uint64
	for k, rd := range rounds {
		heapPeak = max(heapPeak, rd.heapPeak)
		for i := range rd.reqs {
			q := &rd.reqs[i]
			if q.status == http.StatusTooManyRequests || q.status == http.StatusServiceUnavailable {
				refused++
			}
			n := len(q.lines)
			id := k*len(rd.reqs) + i
			root := t.add("harness.request", id, -1, q.due, q.latency(), 0)
			if q.err != nil || n < 3 {
				continue
			}
			cells := "scenario.cells"
			if q.class == "hit" {
				cells = "resultcache.read"
				hitLat = append(hitLat, ms(q.latency()))
			} else {
				for j := 1; j < n-1; j++ {
					cellGaps = append(cellGaps, ms(q.lines[j]-q.lines[j-1]))
				}
			}
			t.add("gen.lag", id, root, q.due, q.lag, 0)
			t.add("server.queue", id, root, q.due+q.lag, q.sent-q.due-q.lag, 0)
			t.add("server.header", id, root, q.sent, q.lines[0]-q.sent, 0)
			t.add(cells, id, root, q.lines[0], q.lines[n-2]-q.lines[0], 0)
			t.add("server.footer", id, root, q.lines[n-2], q.lines[n-1]-q.lines[n-2], 0)
			header = append(header, ms(q.lines[0]-q.sent))
			stream = append(stream, ms(q.lines[n-1]-q.lines[0]))
		}
	}
	// Counters are per round; every round starts from the same state.
	before, after := rounds[0].before, rounds[0].after

	// Parse and compile, timed over the first round's documents.
	var parseT, compileT time.Duration
	for _, d := range rounds[0].docs {
		t0 := time.Now()
		parsed, err := scenario.Parse(d.name, d.body)
		t1 := time.Now()
		if err == nil {
			scenario.Compile(parsed)
		}
		parseT += t1.Sub(t0)
		compileT += time.Since(t1)
	}
	r.layer("scenario.parse_ms", ms(parseT))
	r.layer("scenario.compile_ms", ms(compileT))
	r.layer("scenario.cell_ms_p50", median(cellGaps))
	r.layer("scenario.cell_ms_p99", pctile(cellGaps, 0.99))
	r.layer("scenario.cells", float64(after.Results.Misses-before.Results.Misses))
	r.layer("server.header_ms_p50", median(header))
	r.layer("server.stream_ms_p50", median(stream))
	r.layer("server.refused", float64(refused))
	hits := float64(after.Results.Hits - before.Results.Hits)
	misses := float64(after.Results.Misses - before.Results.Misses)
	if hits+misses > 0 {
		r.layer("resultcache.hit_ratio", hits/(hits+misses))
	}
	r.layer("resultcache.evictions", float64(after.Results.Evictions-before.Results.Evictions))
	r.layer("resultcache.hit_req_ms_p50", median(hitLat))
	r.setCacheLayers(cacheDelta(before.Cache, after.Cache))
	r.setRuntimeLayers(rounds[0].rt, heapPeak)
	// Both harness figures are 0 by construction here: the phases tile
	// each request from due time to footer, so no request time is left
	// outside them, and the split uses only timestamps the untraced run
	// takes as well. A layer left out inside the server shows instead in
	// the phase that holds it (server.header or the cell phase).
	r.layer("trace.unattributed_pct", 0)
	r.layer("trace.overhead_pct", 0)
	if err := t.write(r.workload, r.seed); err != nil {
		r.fail("writing spans: %v", err)
	}
}

// saturate measures the server's capacity for the serve mix: one round's
// requests, sent closed loop over nproc connections (each connection sends
// its next request as soon as the last one ends), against a fresh server
// set up as for a round. It prints the completed requests per second and
// serveRate as a share of it.
func saturate(seed uint64) error {
	r := &run{workload: "serve", seed: seed, metrics: map[string]metric{}}
	docs, reqs, s, _, err := r.serveSetup(runtime.NumCPU(), 0)
	if err != nil {
		return err
	}
	defer s.stop()
	work := make(chan *request, len(reqs))
	for i := range reqs {
		work <- &reqs[i]
	}
	close(work)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				s.post(q, docs[q.doc].body, start)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range reqs {
		if q := &reqs[i]; q.err != nil || q.status != http.StatusOK {
			return fmt.Errorf("request %d (%s): status %d: %v", i, q.class, q.status, q.err)
		}
	}
	rate := float64(len(reqs)) / elapsed.Seconds()
	fmt.Printf("saturation: %d requests in %.2fs over %d connections = %.0f req/s; serveRate %d req/s is %.0f%% of it\n",
		len(reqs), elapsed.Seconds(), runtime.NumCPU(), rate, serveRate, 100*serveRate/rate)
	return nil
}

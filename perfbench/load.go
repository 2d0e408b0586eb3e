package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diffra/internal/service"
	"diffra/internal/telemetry"
)

// The host shape is pinned, not inherited: two closed-loop clients
// against a two-worker pool on two Ps, with the remap and spill
// searches serial inside each compile (the service default). On a
// two-CPU host this measures a loaded server, not worker scaling.
const (
	clients       = 2
	serverWorkers = 2
	maxProcs      = 2
	// maxOverrun bounds how far a timed phase may run past its length
	// while it collects its minimum number of samples.
	maxOverrun = 60 * time.Second
)

// rig is one server under test: the compile service behind httptest on
// loopback TCP, with one keep-alive HTTP client per load generator.
type rig struct {
	srv     *service.Server
	ts      *httptest.Server
	url     string
	clients []*http.Client
	// bufs holds one reused request body and one reused reply buffer per
	// client, so the load generator's own allocations stay few.
	bufs []clientBufs
	// conns counts the TCP connections the server accepted.
	conns atomic.Int64
}

type clientBufs struct {
	body  []byte
	reply bytes.Buffer
}

// newServer builds the compile service with the pinned shape and a
// registry of its own, so its counters see only its own traffic.
func newServer() (*service.Server, error) {
	return service.New(service.Config{
		Workers:      serverWorkers,
		RemapWorkers: 1,
		SpillWorkers: 1,
		Registry:     telemetry.NewRegistry(),
	})
}

func newRig() (*rig, error) {
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv}
	r.ts = httptest.NewUnstartedServer(srv.Handler())
	r.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			r.conns.Add(1)
		}
	}
	r.ts.Start()
	r.url = r.ts.URL + "/compile"
	for i := 0; i < clients; i++ {
		// One connection per client, kept alive across requests, so
		// connection set-up never lands in a latency sample.
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	r.bufs = make([]clientBufs, clients)
	return r, nil
}

func (r *rig) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.ts.Close()
}

func (r *rig) counter(name string) int64 { return r.srv.Registry().Counter(name).Value() }

// body splices client c's request body for in under name from the
// input's pre-encoded halves into the client's buffer.
func (r *rig) body(c int, in *input, name string) []byte {
	b := &r.bufs[c]
	b.body = in.body(b.body[:0], name)
	return b.body
}

// post sends client c's request body and decodes the reply. The reply
// is read to EOF, so the connection goes back to the client's idle
// pool.
func (r *rig) post(c int, body []byte) (service.Response, int, error) {
	var out service.Response
	resp, err := r.clients[c].Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	reply := &r.bufs[c].reply
	reply.Reset()
	if _, err := reply.ReadFrom(resp.Body); err != nil {
		return out, resp.StatusCode, err
	}
	return out, resp.StatusCode, json.Unmarshal(reply.Bytes(), &out)
}

// send posts client c's request for in under name and checks the
// reply. The latency runs from send until the reply is decoded; the
// body is built before the clock starts.
func (r *rig) send(c int, in *input, name string) (time.Duration, error) {
	body := r.body(c, in, name)
	start := time.Now()
	resp, status, err := r.post(c, body)
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", in, err)
	}
	return lat, in.check(resp, status, name)
}

// namer hands out function names. On a miss workload every name is
// new: the kernel's name, a token drawn from the seed, and a sequence
// number. On the replay workload a kernel keeps its own name.
type namer struct {
	miss bool
	// token is "_" and eight hex digits of the seed's draw, then "_".
	token string
	seq   atomic.Int64
}

func newNamer(miss bool, seed int64) *namer {
	return &namer{miss: miss, token: fmt.Sprintf("_%08x_", rand.New(rand.NewSource(seed)).Uint32())}
}

func (n *namer) name(in *input) string {
	if !n.miss {
		return in.kernel.F.Name
	}
	return in.kernel.F.Name + n.token + strconv.FormatInt(n.seq.Add(1), 10)
}

// warm walks the distinct set passes times, split between the clients,
// and checks every reply.
func (r *rig) warm(inputs []*input, nm *namer, passes int) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for i := c; i < len(inputs); i += len(r.clients) {
					if _, err := r.send(c, inputs[i], nm.name(inputs[i])); err != nil {
						errs[c] = err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupRigs sets up n times, each time building a server and running
// the warm passes, and keeps the last rig for measuring. It returns
// each set-up's time scaled to the reference speed (calib.go) by
// calibrations before and after it; their median is steadier than any
// one of them.
func setupRigs(w workload, inputs []*input, nm *namer, n int) (*rig, []float64, error) {
	var r *rig
	var secs []float64
	cal := newCalibrator()
	defer cal.close()
	prev := cal.run()
	for i := 0; i < n; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = newRig(); err != nil {
			return nil, nil, err
		}
		if err := r.warm(inputs, nm, w.warmPasses); err != nil {
			r.close()
			return nil, nil, fmt.Errorf("warm pass: %w", err)
		}
		took := time.Since(start)
		next := cal.run()
		secs = append(secs, took.Seconds()/slowdown(prev, next))
		prev = next
	}
	return r, secs, nil
}

// loadStats is what one closed-loop phase measured.
type loadStats struct {
	attempted, failed int
	firstErr          error
	// lat counts the latency of every successful request.
	lat     *latHist
	elapsed time.Duration

	// The rest is filled by timed only. The scaled fields are lat,
	// elapsed and cpu scaled to the reference speed slice by slice.
	cpu                    time.Duration
	scaledLat              *latHist
	scaledElapsed          time.Duration
	scaledCPU              time.Duration
	slowdowns, sliceRPS    []float64
	mallocs, allocBytes    uint64
	gcs                    uint32
	gcPause                time.Duration
	heapInuse              uint64
	hits, misses, compiles int64
	newConns               int64
}

// walk is where each client is in its walk over the distinct inputs.
// Each client's order is fixed by the seed, and a phase made of several
// closed loops carries on where the last one stopped.
type walk struct {
	orders [][]int
	pos    []int
}

func newWalk(seed int64, n int) *walk {
	w := &walk{orders: make([][]int, clients), pos: make([]int, clients)}
	for c := range w.orders {
		w.orders[c] = rand.New(rand.NewSource(seed*clients + int64(c))).Perm(n)
	}
	return w
}

// closedLoop runs the clients. Each sends its next request only after
// do returned for the previous one, walking the distinct set in its
// seeded order, until dur has passed and at least minSamples requests
// succeeded, or maxOverrun more has passed. Latencies go into
// histograms allocated before the clock starts, so the loop holds no
// memory that grows with the number of requests.
func closedLoop(inputs []*input, wk *walk, dur time.Duration, minSamples int, do func(c int, in *input) (time.Duration, error)) loadStats {
	var (
		st loadStats
		mu sync.Mutex
		ok atomic.Int64
		wg sync.WaitGroup
	)
	st.lat = new(latHist)
	hists := make([]latHist, clients)
	start := time.Now()
	deadline, hardStop := start.Add(dur), start.Add(dur+maxOverrun)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order, i := wk.orders[c], wk.pos[c]
			mine := loadStats{lat: &hists[c]}
			for ; ; i++ {
				if now := time.Now(); !now.Before(deadline) && (ok.Load() >= int64(minSamples) || !now.Before(hardStop)) {
					break
				}
				lat, err := do(c, inputs[order[i%len(order)]])
				mine.attempted++
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = err
					}
					continue
				}
				mine.lat.add(lat)
				ok.Add(1)
			}
			wk.pos[c] = i
			mu.Lock()
			defer mu.Unlock()
			st.attempted += mine.attempted
			st.failed += mine.failed
			st.lat.merge(mine.lat)
			if st.firstErr == nil {
				st.firstErr = mine.firstErr
			}
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// sliceLen is the length of one load slice of the timed phase; a
// calibration runs before and after each.
const sliceLen = 2000 * time.Millisecond

// timed is the untraced measured phase: load slices of about sliceLen
// with a calibration between each two. Around each slice it reads the
// process's CPU time and allocation counters; around the phase, the
// server's cache and compile counters and the connections it accepted.
// Afterwards a forced GC gives the retained heap. The CPU time and
// allocations include the in-process load generator's, whose
// per-request work is kept small: a spliced body, a reused reply buffer
// and a decode.
func (r *rig) timed(inputs []*input, nm *namer, seed int64, dur time.Duration, minSamples int) loadStats {
	hits, misses, compiles := r.counter("service_cache_hits"), r.counter("service_cache_misses"), r.counter("service_compiles_total")
	conns := r.conns.Load()
	slices := max(1, int((dur+sliceLen/2)/sliceLen))
	st := loadStats{lat: new(latHist), scaledLat: new(latHist)}
	wk := newWalk(seed, len(inputs))
	cal := newCalibrator()
	prev := cal.run()
	for s := 0; s < slices; s++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu := cpuTime()
		sl := closedLoop(inputs, wk, dur/time.Duration(slices), (minSamples+slices-1)/slices, func(c int, in *input) (time.Duration, error) {
			return r.send(c, in, nm.name(in))
		})
		sl.cpu = cpuTime() - cpu
		runtime.ReadMemStats(&m1)
		next := cal.run()
		f := slowdown(prev, next)
		prev = next

		st.attempted += sl.attempted
		st.failed += sl.failed
		if st.firstErr == nil {
			st.firstErr = sl.firstErr
		}
		st.lat.merge(sl.lat)
		st.scaledLat.mergeScaled(sl.lat, f)
		st.elapsed += sl.elapsed
		st.scaledElapsed += time.Duration(float64(sl.elapsed) / f)
		st.cpu += sl.cpu
		st.scaledCPU += time.Duration(float64(sl.cpu) / f)
		st.slowdowns = append(st.slowdowns, f)
		st.sliceRPS = append(st.sliceRPS, float64(sl.lat.n)/sl.elapsed.Seconds())
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.gcs += m1.NumGC - m0.NumGC
		st.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	st.hits = r.counter("service_cache_hits") - hits
	st.misses = r.counter("service_cache_misses") - misses
	st.compiles = r.counter("service_compiles_total") - compiles
	st.newConns = r.conns.Load() - conns
	// The calibrator is let go first, so its memory is not counted.
	cal.close()
	cal = nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.heapInuse = m.HeapInuse
	return st
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (st loadStats) hitRatio() float64 {
	if st.hits+st.misses == 0 {
		return 0
	}
	return float64(st.hits) / float64(st.hits+st.misses)
}

// problems lists what makes a timed phase's numbers untrustworthy:
// failed requests, too few samples, connection set-up inside the
// timed window, or cache counters that break the workload's premise.
func (st loadStats) problems(w workload, minSamples int) []string {
	var p []string
	if st.failed > 0 {
		p = append(p, fmt.Sprintf("%d of %d requests failed; first: %v", st.failed, st.attempted, st.firstErr))
	}
	if st.lat.n < int64(minSamples) {
		p = append(p, fmt.Sprintf("%d latency samples, want at least %d", st.lat.n, minSamples))
	}
	if st.newConns != 0 {
		p = append(p, fmt.Sprintf("%d connections opened during the timed phase", st.newConns))
	}
	if w.miss && st.hits != 0 {
		p = append(p, fmt.Sprintf("premise: %d cache hits on a miss workload", st.hits))
	}
	if !w.miss && (st.misses != 0 || st.compiles != 0) {
		p = append(p, fmt.Sprintf("premise: %d misses and %d compiles on the replay workload", st.misses, st.compiles))
	}
	return p
}

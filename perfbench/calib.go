package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// The hosts this benchmark runs on are shared, and their speed drifts
// over minutes: the same build serves the same requests up to 1.7 times
// slower, in CPU time as well as in wall time, so a plain clock reading
// moves more between two runs of identical code than most changes to
// diffra would. The timed phase therefore alternates load slices with
// calibrations: fixed jobs of the benchmark's own, whose time no change
// to diffra can move. It scales every time metric to the reference speed:
// the speed at which one calibration takes calRef. A time metric reads
// as the time the same work would take on a host that runs the job in
// calRef; the raw readings are printed beside it.

// calRef is the reference time of one calibration. It is roughly what a
// calibration takes on a 2-vCPU 2.0 GHz Xeon virtual machine, so scaled
// and raw readings are of the same size there.
const calRef = 20 * time.Millisecond

// calibrator times the two calibration jobs: calJob, the compute a
// compile is made of, and netCal, the loopback HTTP and JSON a cache hit
// is made of. One calibration is the geometric mean of their times; it
// tracks the miss and the hit workloads alike better than either job
// alone.
type calibrator struct {
	job *calJob
	net *netCal
}

func newCalibrator() *calibrator {
	return &calibrator{job: newCalJob(), net: newNetCal()}
}

func (c *calibrator) close() { c.net.close() }

// run performs one calibration and returns its time. A forced GC first
// finishes the garbage of the load before it, so a change to how much
// diffra allocates cannot slow the calibration.
func (c *calibrator) run() time.Duration {
	runtime.GC()
	return time.Duration(math.Sqrt(float64(fastest(c.job.reps())) * float64(fastest(c.net.reps()))))
}

// fastest is the fastest of a job's repetitions, which a stray
// interrupt can only slow.
func fastest(ds []time.Duration) time.Duration {
	best := ds[0]
	for _, d := range ds {
		best = min(best, d)
	}
	return best
}

const (
	// calReps is how often one calibration runs each job.
	calReps = 5
	// calKeys is the job's working set per goroutine: a search tree, a
	// map and a sorted copy over this many keys, about 1.5 MB in all.
	calKeys = 1 << 15
	// calNetReqs is how many requests each client sends in one
	// repetition of netCal.
	calNetReqs = 100
)

// calJob is the calibration job: on each of maxProcs goroutines at
// once, the same fixed mix of pointer chasing, hashing and sorting that
// a compile and its reply are made of. Its memory is allocated once, so
// a calibration allocates almost nothing and leaves the allocation
// metrics alone.
type calJob struct {
	lanes []calLane
}

type calLane struct {
	keys, sorted []uint32
	nodes        []calNode
	m            map[uint32]uint32
	sink         uint32
}

// calNode is a node of an unbalanced search tree over keys, linked by
// index into calLane.nodes.
type calNode struct {
	left, right int32
	key         uint32
}

func newCalJob() *calJob {
	j := &calJob{lanes: make([]calLane, maxProcs)}
	for i := range j.lanes {
		l := &j.lanes[i]
		l.keys = make([]uint32, calKeys)
		x := uint32(2463534242 + i)
		for k := range l.keys {
			// xorshift32: a fixed sequence, the same on every run.
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			l.keys[k] = x
		}
		l.sorted = make([]uint32, calKeys)
		l.nodes = make([]calNode, 0, calKeys)
		l.m = make(map[uint32]uint32, calKeys)
	}
	return j
}

// reps runs the job calReps times and returns each time.
func (j *calJob) reps() []time.Duration {
	var out []time.Duration
	for rep := 0; rep < calReps; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i := range j.lanes {
			wg.Add(1)
			go func(l *calLane) {
				defer wg.Done()
				l.work()
			}(&j.lanes[i])
		}
		wg.Wait()
		out = append(out, time.Since(start))
	}
	return out
}

func (l *calLane) work() {
	// Build the tree, then look every key up in it.
	l.nodes = l.nodes[:0]
	for _, k := range l.keys {
		l.insert(k)
	}
	var acc uint32
	for _, k := range l.keys {
		acc += l.depth(k)
	}
	// Fill the map and probe it.
	clear(l.m)
	for i, k := range l.keys {
		l.m[k] = uint32(i)
	}
	for _, k := range l.keys {
		acc += l.m[k^1] + l.m[k]
	}
	copy(l.sorted, l.keys)
	slices.Sort(l.sorted)
	l.sink = acc + l.sorted[calKeys/2]
}

func (l *calLane) insert(k uint32) {
	l.nodes = append(l.nodes, calNode{left: -1, right: -1, key: k})
	n := int32(len(l.nodes) - 1)
	if n == 0 {
		return
	}
	for i := int32(0); ; {
		p := &l.nodes[i]
		next := &p.right
		if k < p.key {
			next = &p.left
		}
		if *next < 0 {
			*next = n
			return
		}
		i = *next
	}
}

func (l *calLane) depth(k uint32) uint32 {
	d := uint32(0)
	for i := int32(0); i >= 0 && l.nodes[i].key != k; d++ {
		if k < l.nodes[i].key {
			i = l.nodes[i].left
		} else {
			i = l.nodes[i].right
		}
	}
	return d
}

// slowdown is how much slower than the reference the host ran around a
// slice: the mean of the calibrations before and after it over calRef.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(calRef)
}

// netCal is the calibration's network part: a loopback HTTP echo
// server of the benchmark's own that decodes a JSON body and encodes a
// reply, driven by one closed loop per client on a keep-alive
// connection, as a cache hit is served.
type netCal struct {
	ts      *httptest.Server
	clients []*http.Client
	body    []byte
}

type calMsg struct {
	Text string `json:"text"`
	N    []int  `json:"n"`
}

func newNetCal() *netCal {
	n := &netCal{}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m calMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m.Text += m.Text
		slices.Reverse(m.N)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m)
	}))
	for c := 0; c < clients; c++ {
		n.clients = append(n.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	m := calMsg{Text: strings.Repeat("v1 = add v2, v3\n", 100)}
	for i := 0; i < 64; i++ {
		m.N = append(m.N, i*i)
	}
	n.body, _ = json.Marshal(m)
	return n
}

func (n *netCal) close() {
	for _, c := range n.clients {
		c.CloseIdleConnections()
	}
	n.ts.Close()
}

// reps sends calNetReqs requests on each client calReps times and
// returns each time. A failed request would make the calibration look
// fast, so it ends the benchmark.
func (n *netCal) reps() []time.Duration {
	var out []time.Duration
	for rep := 0; rep < calReps; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range n.clients {
			wg.Add(1)
			go func(c *http.Client) {
				defer wg.Done()
				var reply bytes.Buffer
				for i := 0; i < calNetReqs; i++ {
					resp, err := c.Post(n.ts.URL, "application/json", bytes.NewReader(n.body))
					if err == nil {
						reply.Reset()
						_, err = reply.ReadFrom(resp.Body)
						resp.Body.Close()
						if err == nil && resp.StatusCode != http.StatusOK {
							err = errors.New(resp.Status)
						}
					}
					var m calMsg
					if err == nil {
						err = json.Unmarshal(reply.Bytes(), &m)
					}
					if err != nil {
						panic(fmt.Sprintf("perfbench: calibration request failed: %v", err))
					}
				}
			}(c)
		}
		wg.Wait()
		out = append(out, time.Since(start))
	}
	return out
}

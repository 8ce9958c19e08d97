package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccr/internal/serve"
	"ccr/internal/workloads"
)

const (
	// defaultSeed is the seed the serve sequence golden is recorded for;
	// meta.json names the held-out seed later claims must also hold on.
	defaultSeed = 1
	// serveRequests is the length of the seeded sequence.
	serveRequests = 1500
	serveConns    = 2
	serveJobs     = "2"
	// minServeReps is the fewest daemons a run starts, warms and sends
	// the sequence to.
	minServeReps = 3
	simFrac      = 0.85
	// firstFrac is the share of requests that are first touches.
	firstFrac = 0.2
)

// The CRB geometry grid simulate and phases requests draw from.
var (
	gridEntries   = []int{16, 32, 64, 128, 256}
	gridInstances = []int{2, 4, 8, 16}
	gridAssoc     = []int{1, 2, 4}
)

// reqKey names one request of the key space; equal keys get
// byte-identical responses (ServerNS aside).
type reqKey struct {
	compile, phases      bool
	bench, dataset       string
	entries, inst, assoc int
}

func (k reqKey) String() string {
	if k.compile {
		return "compile/" + k.bench
	}
	if k.phases {
		return fmt.Sprintf("phases/%s/E%d/I%d/A%d", k.bench, k.entries, k.inst, k.assoc)
	}
	return fmt.Sprintf("simulate/%s/%s/E%d/I%d/A%d", k.bench, k.dataset, k.entries, k.inst, k.assoc)
}

func (k reqKey) geom() *serve.CRBGeom {
	return &serve.CRBGeom{Entries: k.entries, Instances: k.inst, Assoc: k.assoc}
}

// keySpace enumerates every simulate key (bench × dataset × geometry) and
// every phases key (bench × geometry) in a fixed order.
func keySpace() (sims, phases []reqKey) {
	for _, b := range workloads.Names() {
		for _, e := range gridEntries {
			for _, i := range gridInstances {
				for _, a := range gridAssoc {
					for _, ds := range []string{"train", "ref"} {
						sims = append(sims, reqKey{bench: b, dataset: ds, entries: e, inst: i, assoc: a})
					}
					phases = append(phases, reqKey{phases: true, bench: b, entries: e, inst: i, assoc: a})
				}
			}
		}
	}
	return sims, phases
}

// sequence builds the seeded request sequence of about n requests. Its
// composition is fixed and only the seed's choices vary, so every seed
// asks for the same amount of work: each benchmark × dataset pair gets the
// same number of simulate requests spread over keysPerPair seeded CRB
// geometries with Zipf-ranked repeat counts (a first touch per geometry,
// about a fifth of all requests), each benchmark gets the same number of
// uncached phases requests on seeded geometries, and the whole list is
// shuffled.
func sequence(seed uint64, n int) []reqKey {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	sims, phases := keySpace()
	names := workloads.Names()
	nGeom := len(phases) / len(names)
	phasesPerBench := int(float64(n) * (1 - simFrac) / float64(len(names)))
	simsPerPair := int(float64(n) * simFrac / float64(2*len(names)))
	keysPerPair := min(max(int(firstFrac*float64(n)/float64(2*len(names))+0.5), 1), nGeom, simsPerPair)
	counts := zipfCounts(simsPerPair, keysPerPair)
	var seq []reqKey
	for b := range names {
		for ds := range 2 {
			// sims is ordered bench, geometry, dataset.
			perm := rng.Perm(nGeom)
			for rank, c := range counts {
				k := sims[(b*nGeom+perm[rank])*2+ds]
				for range c {
					seq = append(seq, k)
				}
			}
		}
		for range phasesPerBench {
			seq = append(seq, phases[b*nGeom+rng.IntN(nGeom)])
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// zipfCounts splits total requests over k keys in proportion to
// 1/(rank+1), every key getting at least one (largest-remainder rounding).
func zipfCounts(total, k int) []int {
	var h float64
	for r := range k {
		h += 1 / float64(r+1)
	}
	counts := make([]int, k)
	frac := make([]float64, k)
	left := total
	for r := range k {
		x := float64(total) / (float64(r+1) * h)
		counts[r] = max(int(x), 1)
		frac[r] = x - float64(int(x))
		left -= counts[r]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for i := 0; left > 0; i = (i + 1) % k {
		counts[order[i]]++
		left--
	}
	return counts
}

// Request classes, assigned when a request is sent.
const (
	classFirst  = iota // key never sent, or its first request still in flight
	classRepeat        // key's first request already answered
	classPhases        // phases requests are never cached
	nClasses
)

var classNames = [nClasses]string{"first", "repeat", "phases"}

// daemon is one running ccrd with its client connections.
type daemon struct {
	cmd      *exec.Cmd
	clients  []*serve.Client
	span     int
	compiles []sample // the warm-up compile answers, checked like requests
}

// startDaemon launches ccrd -jobs 2 in dir, connects serveConns clients
// and warms it with one compile request per benchmark, spread over the
// connections. It returns the daemon and the set-up time (launch to the
// last compile answer).
func (e *env) startDaemon(dir string) (*daemon, float64, error) {
	t0 := time.Now()
	d := &daemon{span: e.tr.begin("ccrd", -1, 0)}
	// The socket path is relative to the daemon's directory, which keeps
	// it short however deep the checkout is.
	d.cmd = newCmd(e.ctx, dir, nil, e.tool("ccrd"),
		"-addr", "unix:ccrd.sock", "-jobs", serveJobs)
	logf, err := os.Create(filepath.Join(dir, "ccrd.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	setup := e.tr.begin("serve.setup", d.span, 0)
	addr := "unix:" + filepath.Join(dir, "ccrd.sock")
	for range serveConns {
		cl, err := dial(addr)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.clients = append(d.clients, cl)
	}
	names := workloads.Names()
	d.compiles = make([]sample, len(names))
	var next atomic.Int64
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(names) {
					return
				}
				s := e.tr.begin("serve.compile", setup, c+1)
				k := reqKey{compile: true, bench: names[i]}
				h, _, err := send(d.clients[c], k)
				e.tr.end(s)
				d.compiles[i] = sample{key: k, hash: h, err: err}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	e.tr.end(setup)
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up compile: %w", err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// dial connects to a daemon that may not be listening yet, polling every
// few milliseconds (serve.DialRetry's backoff would add up to a second of
// noise to the set-up time). The benchmark binary is a different main
// module than ccrd, so their build identities always differ: the server
// is accepted regardless.
func dial(addr string) (*serve.Client, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err := serve.Dial(addr, serve.DialOptions{Force: true})
		if err == nil || !serve.IsDialError(err) || time.Now().After(deadline) {
			return cl, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and returns its peak RSS.
func (d *daemon) stop() (rssMB float64, err error) {
	for _, cl := range d.clients {
		cl.Close()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		err = <-done
	}
	if d.cmd.ProcessState != nil {
		_, rssMB = usage(d.cmd.ProcessState)
	}
	return rssMB, err
}

// sample is one answered request.
type sample struct {
	key       reqKey
	class     int
	lat       time.Duration
	serverNS  int64
	hash      string // response digest with ServerNS removed
	err       error
	sent, got time.Time
}

// serveRep is one daemon's run: its set-up, then the whole sequence.
type serveRep struct {
	setup, wall, cpu, rssMB float64
	compiles, samples       []sample
	hits, misses            int64 // ccr_sim cache traffic during the sequence
}

// runServe repeats {fresh daemon, set-up, seeded sequence} until -seconds
// have passed and at least minServeReps times, and reports the medians:
// identical work on three daemons steadies a figure that one daemon's
// run would leave at the mercy of its process's luck.
func runServe(e *env) (*outcome, error) {
	o := &outcome{}
	seq := sequence(e.seed, serveRequests)
	var setups, walls, cpus []float64
	var all []sample
	var hits, misses int64
	t0 := time.Now()
	for rep := 0; rep < minServeReps || time.Since(t0).Seconds() < e.seconds; rep++ {
		dir, err := e.freshDir("serve")
		if err != nil {
			return nil, err
		}
		r, err := e.serveOnce(dir, seq)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "serve rep %d: setup %.3fs, sequence %.3fs wall, %.2fs cpu\n",
			rep, r.setup, r.wall, r.cpu)
		setups = append(setups, r.setup)
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		o.rssMB = max(o.rssMB, r.rssMB)
		hits += r.hits
		misses += r.misses
		checkServe(e, o, r.compiles, r.samples)
		all = append(all, r.samples...)
	}
	o.setup, o.wall, o.cpu = median(setups), median(walls), median(cpus)
	var total float64
	for _, w := range walls {
		total += w
	}
	serveMetrics(o, all, total, hits, misses)
	return o, nil
}

// serveOnce starts and warms a daemon in dir, sends seq, and drains it.
func (e *env) serveOnce(dir string, seq []reqKey) (*serveRep, error) {
	d, setup, err := e.startDaemon(dir)
	if err != nil {
		return nil, err
	}
	r := &serveRep{setup: setup, compiles: d.compiles}
	err = func() error {
		before, err := d.clients[0].Stats()
		if err != nil {
			return err
		}
		pid := d.cmd.Process.Pid
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		r.samples, r.wall = closedLoop(e, d, seq)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		after, err := d.clients[0].Stats()
		if err != nil {
			return err
		}
		r.cpu = cpu1 - cpu0
		b, a := before.Suites["small"].Caches["ccr_sim"], after.Suites["small"].Caches["ccr_sim"]
		r.hits, r.misses = a.Hits-b.Hits, a.Misses-b.Misses
		return nil
	}()
	rss, stopErr := d.stop()
	e.tr.end(d.span)
	if err == nil && stopErr != nil {
		err = fmt.Errorf("ccrd drain: %w", stopErr)
	}
	r.rssMB = rss
	return r, err
}

// closedLoop sends seq over the daemon's connections, each connection
// sending its next request as soon as the previous one is answered.
func closedLoop(e *env, d *daemon, seq []reqKey) ([]sample, float64) {
	samples := make([]sample, len(seq))
	var mu sync.Mutex
	answered := map[reqKey]bool{} // present: sent; true: first answer received
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	phase := e.tr.begin("serve.sequence", d.span, 0)
	for c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := d.clients[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				k := seq[i]
				s := &samples[i]
				s.key = k
				mu.Lock()
				done, sent := answered[k]
				switch {
				case k.phases:
					s.class = classPhases
				case sent && done:
					s.class = classRepeat
				default:
					s.class = classFirst
				}
				if !sent {
					answered[k] = false
				}
				mu.Unlock()
				s.sent = time.Now()
				s.hash, s.serverNS, s.err = send(cl, k)
				s.got = time.Now()
				s.lat = s.got.Sub(s.sent)
				if !k.phases && s.err == nil {
					mu.Lock()
					answered[k] = true
					mu.Unlock()
				}
				if e.tr != nil {
					r := e.tr.add("serve.request."+classNames[s.class], phase, c+1, s.sent, s.got)
					if s.serverNS > 0 {
						// The server's own time, centred in the round trip:
						// the request span's self time is then the wire and
						// client overhead.
						pad := (s.lat - time.Duration(s.serverNS)) / 2
						st := s.sent.Add(pad)
						e.tr.add("serve.server", r, c+1, st, st.Add(time.Duration(s.serverNS)))
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	e.tr.end(phase)
	return samples, wall
}

// send issues one request and digests its response with ServerNS
// removed, the only field that legitimately differs between answers.
func send(cl *serve.Client, k reqKey) (string, int64, error) {
	var body any
	var serverNS int64
	switch {
	case k.compile:
		r, err := cl.Compile(serve.CompileReq{Bench: k.bench, Scale: "small"})
		if err != nil {
			return "", 0, err
		}
		serverNS, r.ServerNS = r.ServerNS, 0
		body = r
	case k.phases:
		r, err := cl.Phases(serve.PhasesReq{Bench: k.bench, Scale: "small", CRB: k.geom()})
		if err != nil {
			return "", 0, err
		}
		body = r
	default:
		r, err := cl.Simulate(serve.SimulateReq{Bench: k.bench, Scale: "small", Dataset: k.dataset, CRB: k.geom()})
		if err != nil {
			return "", 0, err
		}
		serverNS, r.ServerNS = r.ServerNS, 0
		body = r
	}
	b, err := json.Marshal(body)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), serverNS, nil
}

// checkServe compares every warm-up compile answer and every response
// with the per-key golden and, for the default seed, the whole sequence
// with its golden hash.
func checkServe(e *env, o *outcome, compiles, samples []sample) {
	o.attempted += len(compiles) + len(samples)
	want, err := loadServeKeys()
	if err != nil && !e.writing {
		o.problem("serve golden: %v", err)
	}
	check := func(label string, s sample) {
		k := s.key.String()
		switch {
		case s.err != nil:
			o.failed++
			o.problem("%s (%s): %v", label, k, s.err)
		case e.writing:
			e.gotKeys[k] = s.hash
		case want[k] != s.hash:
			o.failed++
			o.problem("%s (%s): response %s, golden %q", label, k, s.hash, want[k])
		}
	}
	for _, s := range compiles {
		check("warm-up", s)
	}
	seqHash := sha256.New()
	for i, s := range samples {
		fmt.Fprintf(seqHash, "%d %s %s\n", i, s.key, s.hash)
		check(fmt.Sprintf("request %d", i), s)
	}
	got := hex.EncodeToString(seqHash.Sum(nil))
	if e.seed != defaultSeed {
		return
	}
	if e.writing {
		e.golden["serve_sequence.sha256"] = got
		return
	}
	if g, err := readGolden("serve_sequence.sha256"); err != nil {
		o.problem("serve sequence golden: %v", err)
	} else if g != got {
		o.problem("serve sequence hash %s, golden %s", got, g)
	}
}

// serveMetrics derives the client-side latency figures and the server and
// wire layer readings from every repetition's samples; wall is their
// summed sequence time.
func serveMetrics(o *outcome, samples []sample, wall float64, hits, misses int64) {
	var lat, srv [nClasses][]float64
	var overhead []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		ms := float64(s.lat.Nanoseconds()) / 1e6
		lat[s.class] = append(lat[s.class], ms)
		if s.serverNS > 0 {
			sms := float64(s.serverNS) / 1e6
			srv[s.class] = append(srv[s.class], sms)
			if s.class == classRepeat {
				overhead = append(overhead, ms-sms)
			}
		}
	}
	o.extra = []namedMetric{
		{"throughput_rps", float64(len(samples)) / wall, "1/s"},
		{"repeat_p50_ms", percentile(lat[classRepeat], 0.50), "ms"},
		{"repeat_p99_ms", tailPercentile(lat[classRepeat], 0.99), "ms"},
		{"first_p50_ms", percentile(lat[classFirst], 0.50), "ms"},
		{"first_p95_ms", tailPercentile(lat[classFirst], 0.95), "ms"},
		{"phases_p50_ms", percentile(lat[classPhases], 0.50), "ms"},
		{"phases_p95_ms", tailPercentile(lat[classPhases], 0.95), "ms"},
		{"first_requests", float64(len(lat[classFirst])), "count"},
		{"repeat_requests", float64(len(lat[classRepeat])), "count"},
		{"phases_requests", float64(len(lat[classPhases])), "count"},
	}
	o.layers = map[string]float64{
		"serve.repeat_server_p50_ms":  percentile(srv[classRepeat], 0.50),
		"wire.repeat_overhead_p50_ms": percentile(overhead, 0.50),
		"serve.first_server_p50_ms":   percentile(srv[classFirst], 0.50),
	}
	for _, m := range o.extra[:7] {
		o.layers["client."+m.name] = m.value
	}
	o.layers["serve.ccr_sim_misses"] = float64(misses)
	if hits+misses > 0 {
		o.layers["serve.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPercentile is the highest percentile up to want that still has at
// least 10 samples beyond it, so a tail figure never rests on a handful
// of requests.
func tailPercentile(xs []float64, want float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := min(want, 1-10/float64(len(xs)))
	return percentile(xs, max(p, 0.5))
}

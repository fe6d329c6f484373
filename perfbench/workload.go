package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/serve"
	"photofourier/internal/tensor"
)

// workload is one closed-loop traffic mix. Batch composition is fixed by
// the client (one request, or one frame of concurrent requests, in flight at
// a time), never by arrival timing, so every count the benchmark reports
// repeats exactly from run to run.
type workload struct {
	name string
	net  func() *nn.Network
	// poolSpec is the device pool served through serve.Session.
	poolSpec string
	// refSpec is the single engine whose answers every reply is checked
	// against; exact selects bit-identity over top-1 agreement.
	refSpec string
	exact   bool
	// frame is how many concurrent Infer calls the client keeps in flight;
	// the next frame starts when all of them have answered.
	frame int
	// perDevice is how many samples one device runs per executor call.
	perDevice int
	opts      serve.Options
	// warmFrames run untimed before measuring. On the chaos workload they
	// carry the stream past the outage of the second device, so the timed phase
	// sees the degraded pool in its steady state.
	warmFrames int
}

const (
	tiledDevice  = "accelerator?tiled=true,workers=1"
	directDevice = "accelerator?workers=1"
	faultyDevice = "accelerator?workers=1,fault=shot:2e-3;drift:5e-5,faultseed=7"
	deadDevice   = "accelerator?workers=1,fault=outage:300,faultseed=3"
)

func smallCNN() *nn.Network { return nn.SmallCNN([2]int{8, 16}, 10, 7) }
func alexNetS() *nn.Network { return nn.AlexNetS(10, 7) }

// frameOpts closes a batch when a whole frame has arrived; the delay only
// bounds the wait and is never reached while a frame is submitted at once.
var frameOpts = serve.Options{MaxBatch: 8, MaxDelay: 200 * time.Millisecond}

var workloads = []*workload{
	{
		name:       "b1-alexnets-chan2",
		net:        alexNetS,
		poolSpec:   "pool?shard=channel,devices=" + tiledDevice + "*2",
		refSpec:    tiledDevice,
		exact:      true,
		frame:      1,
		perDevice:  1,
		opts:       serve.Options{MaxBatch: 1},
		warmFrames: 16,
	},
	{
		name:       "f8-smallcnn-tiled",
		net:        smallCNN,
		poolSpec:   "pool?devices=" + tiledDevice + "*2",
		refSpec:    tiledDevice,
		exact:      true,
		frame:      8,
		perDevice:  4,
		opts:       frameOpts,
		warmFrames: 16,
	},
	{
		name:       "f8-smallcnn-direct-chaos",
		net:        smallCNN,
		poolSpec:   "pool?hedge=true,quarantine=1,devices=" + faultyDevice + "|" + deadDevice,
		refSpec:    directDevice,
		exact:      false,
		frame:      8,
		perDevice:  4,
		opts:       frameOpts,
		warmFrames: 48,
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputCount is how many distinct images a run cycles through: a multiple
// of every frame size, so a frame never holds one image twice.
const inputCount = 64

// makeInputs draws the run's CHW images from the seed alone and indexes them
// by their first element, which the traced executor uses to tell which
// request a stacked batch row belongs to.
func makeInputs(seed int64) ([]*tensor.Tensor, map[float64]int, error) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, inputCount)
	byFirst := make(map[float64]int, inputCount)
	for i := range xs {
		xs[i] = tensor.New(3, 32, 32)
		xs[i].RandN(rng, 1)
		if _, dup := byFirst[xs[i].Data[0]]; dup {
			return nil, nil, fmt.Errorf("inputs %d and %d share a first element", byFirst[xs[i].Data[0]], i)
		}
		byFirst[xs[i].Data[0]] = i
	}
	return xs, byFirst, nil
}

// references runs every input alone through a single engine of refSpec.
func (w *workload) references(xs []*tensor.Tensor) ([]reference, error) {
	eng, err := backend.Open(w.refSpec)
	if err != nil {
		return nil, fmt.Errorf("open reference %q: %w", w.refSpec, err)
	}
	plan, err := w.net().Compile(eng)
	if err != nil {
		return nil, fmt.Errorf("compile reference: %w", err)
	}
	refs := make([]reference, len(xs))
	for i, x := range xs {
		out, err := plan.ForwardBatch(&tensor.Tensor{Shape: append([]int{1}, x.Shape...), Data: x.Data})
		if err != nil {
			return nil, fmt.Errorf("reference input %d: %w", i, err)
		}
		refs[i] = newReference(out.Data)
	}
	return refs, nil
}

// server is one constructed serving stack: the pool, the benchmark's
// executor wrapper around it, and the session.
type server struct {
	pool *pool.DevicePool
	exec *timedExec
	sess *serve.Session
}

func (s *server) close() {
	s.sess.Close()
	s.pool.Close()
}

// setupTiming is one construction's cost, split at the user-visible calls.
type setupTiming struct {
	total, open, warm time.Duration
}

// build constructs a fresh serving stack and serves its first frame, the
// warm-up that fills the lazy per-geometry caches. Its total is what a user
// waits for before the first answer.
func (w *workload) build(c *client) (*server, setupTiming, error) {
	var t setupTiming
	t0 := time.Now()
	p, err := pool.Open(w.net(), w.poolSpec)
	if err != nil {
		return nil, t, fmt.Errorf("open pool: %w", err)
	}
	exec := &timedExec{DevicePool: p}
	sess, err := serve.NewExecutor(exec, w.opts)
	if err != nil {
		p.Close()
		return nil, t, fmt.Errorf("start session: %w", err)
	}
	t.open = time.Since(t0)
	s := &server{pool: p, exec: exec, sess: sess}
	t1 := time.Now()
	c.frameOn(s, nil)
	t.warm = time.Since(t1)
	t.total = time.Since(t0)
	return s, t, nil
}

// result is one answered request.
type result struct {
	latency time.Duration
	ok      bool
}

// job is one request a client worker submits: which input to which
// server, and, when traced, the tracer and the span id of its Infer call.
type job struct {
	in      int
	srv     *server
	tr      *tracer
	inferID int64
}

// client is the load generator: frame workers that each keep one Infer in
// flight, fed one frame at a time.
type client struct {
	w       *workload
	inputs  []*tensor.Tensor
	refs    []reference
	next    int
	jobs    chan job
	results chan result
	tr      *tracer
	wg      sync.WaitGroup

	attempted, failed int
}

func newClient(w *workload, inputs []*tensor.Tensor, refs []reference) *client {
	return &client{
		w:      w,
		inputs: inputs,
		refs:   refs,
		// Sized to one frame, the most jobs or results ever outstanding.
		jobs:    make(chan job, w.frame),
		results: make(chan result, w.frame),
	}
}

// start launches the frame workers; stop ends them and waits.
func (c *client) start() {
	c.wg.Add(c.w.frame)
	for i := 0; i < c.w.frame; i++ {
		go c.worker()
	}
}

func (c *client) stop() {
	close(c.jobs)
	c.wg.Wait()
}

func (c *client) worker() {
	defer c.wg.Done()
	for j := range c.jobs {
		t0 := time.Now()
		pred, err := j.srv.sess.Infer(context.Background(), c.inputs[j.in])
		t1 := time.Now()
		if j.tr != nil {
			j.tr.endInfer(j, t0, t1)
		}
		ok := err == nil && c.refs[j.in].passes(pred.Logits, c.w.exact)
		c.results <- result{latency: t1.Sub(t0), ok: ok}
	}
}

// frameOn serves one frame through srv and appends its latencies to lat.
func (c *client) frameOn(srv *server, lat []time.Duration) []time.Duration {
	for i := 0; i < c.w.frame; i++ {
		j := job{in: c.next, srv: srv, tr: c.tr}
		c.next = (c.next + 1) % len(c.inputs)
		if c.tr != nil {
			j.inferID = c.tr.beginInfer(j.in)
		}
		c.jobs <- j
	}
	for i := 0; i < c.w.frame; i++ {
		r := <-c.results
		c.attempted++
		if !r.ok {
			c.failed++
		}
		lat = append(lat, r.latency)
	}
	return lat
}

// phase is what one timed stretch of serving measured.
type phase struct {
	wall       time.Duration
	samples    int
	passed     int
	lat        []time.Duration
	start, end snapshot
	// shotsPerSample covers the first shotWindow samples only: that call
	// range is fixed by the warm-up, so the count repeats exactly even on
	// the faulted workload, whose shot retries depend on the call index.
	shotsPerSample float64
	batches        uint64
	busy           []time.Duration
}

// shotWindow is the number of samples the shot count is taken over.
const shotWindow = 256

// run serves frames for d and measures the stretch.
func (c *client) run(srv *server, d time.Duration) phase {
	var ph phase
	failed0 := c.failed
	batches0 := srv.sess.Batches()
	busy0 := busyTimes(srv.pool)
	ph.start = takeSnapshot()
	shots0, shotsDone := jtc.Shots(), false
	for time.Since(ph.start.at) < d {
		ph.lat = c.frameOn(srv, ph.lat)
		if !shotsDone {
			ph.shotsPerSample = float64(jtc.Shots()-shots0) / float64(len(ph.lat))
			shotsDone = len(ph.lat) >= shotWindow
		}
	}
	ph.end = takeSnapshot()
	ph.wall = ph.end.at.Sub(ph.start.at)
	ph.samples = len(ph.lat)
	ph.passed = ph.samples - (c.failed - failed0)
	ph.batches = srv.sess.Batches() - batches0
	for i, b := range busyTimes(srv.pool) {
		ph.busy = append(ph.busy, b-busy0[i])
	}
	return ph
}

func busyTimes(p *pool.DevicePool) []time.Duration {
	var out []time.Duration
	for _, d := range p.DeviceHealth() {
		out = append(out, d.Busy)
	}
	return out
}

func (ph phase) throughput() float64 { return float64(ph.passed) / ph.wall.Seconds() }

// latencyMs is the nearest-rank q-quantile of every latency in the phase.
func (ph phase) latencyMs(q float64) float64 {
	xs := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		xs[i] = ms(l)
	}
	return nearestRank(xs, q)
}

func (ph phase) perSample(v float64) float64 { return v / float64(max(ph.samples, 1)) }

// setupRuns is how many fresh serving stacks a run constructs; setup_s is
// their median, since one construction of a few milliseconds jitters by
// more than the metric's bound.
const setupRuns = 21

// constructAll builds setupRuns serving stacks one after another, closing
// all but the last, which serves the timed phase.
func (w *workload) constructAll(c *client) (*server, []setupTiming, error) {
	var timings []setupTiming
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.close()
		}
		// Every construction starts from a collected heap, so none pays
		// for the garbage of the one before.
		runtime.GC()
		s, t, err := w.build(c)
		if err != nil {
			return nil, nil, err
		}
		srv = s
		timings = append(timings, t)
	}
	return srv, timings, nil
}

func medianMs(ts []setupTiming, get func(setupTiming) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = ms(get(t))
	}
	return median(xs)
}

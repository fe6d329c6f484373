// Package pool shards batched inference across a farm of registry-opened
// accelerator devices while preserving the single-engine batch contract bit
// for bit. The paper's accelerator is a fleet of JTC units, not one perfect
// engine; this package is the fault-domain-aware scheduler such a fleet
// needs: per-device health scoring and circuit breakers feeding a
// quarantine → background probe → readmit state machine, hedged re-dispatch
// of straggler shards, and graceful degradation of the effective batch
// ceiling as devices die.
//
// Bit-identity rests on the call-reservation keying of the compiled batch
// path (see nn/shard.go and DESIGN.md): a compiled plan consumes a fixed
// stride of engine call indices per sample, and every readout-noise and
// fault substream is keyed by (seed, call index). The pool keeps ONE
// logical call frontier; a request of n samples reserves n*stride indices,
// and the shard covering samples [a,b) aligns its device's counter to
// base + a*stride before executing. Any same-seed device therefore draws
// exactly the substreams one engine serving the whole sequence would have
// drawn, so sharding — and hedged duplicate execution — is invisible in
// results.
package pool

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

// Shard strategies (Options.Shard / the shard= spec key).
const (
	// ShardSample splits a request's samples across devices (the default):
	// throughput scales with pool size, batch-1 latency does not.
	ShardSample = "sample"
	// ShardChannel splits every layer's output channels across devices and
	// merges partial activations — intra-sample parallelism that cuts
	// batch-1 latency. Requires a homogeneous pool and channel-shardable
	// plans (see nn.ChannelShardSteps).
	ShardChannel = "channel"
)

// Typed sentinel errors; test with errors.Is.
var (
	// ErrPoolExhausted marks a request that found zero live devices: every
	// device in the pool is quarantined. It wraps the last device error, so
	// errors.Is against core.ErrDeviceFault keeps working.
	ErrPoolExhausted = errors.New("pool: no live devices")
	// ErrPoolClosed marks a ForwardBatch call on a closed pool.
	ErrPoolClosed = errors.New("pool: closed")
	// ErrBadPool marks invalid pool options or an unusable device spec,
	// rejected once by New.
	ErrBadPool = errors.New("pool: bad configuration")
)

// Options configures a DevicePool. The zero value of every field selects
// its default; New validates once.
type Options struct {
	// Specs are the backend specs of the pool's devices, one device per
	// entry (possibly heterogeneous, each with its own fault= injector and
	// seed). Required.
	Specs []string
	// MaxShards caps how many shards one ForwardBatch splits into
	// (default: pool size).
	MaxShards int
	// QuarantineThreshold is how many consecutive shard faults quarantine
	// a device (default 3).
	QuarantineThreshold int
	// ProbeInterval is the background probe cadence for quarantined
	// devices (default 50ms).
	ProbeInterval time.Duration
	// Hedge enables straggler re-dispatch: when a shard outlives the hedge
	// delay, a duplicate runs on the healthiest idle device and the first
	// result wins.
	Hedge bool
	// HedgeDelay fixes the hedge delay. 0 (the default) derives it from
	// the observed shard-latency p99 times HedgeFactor once enough shards
	// have completed.
	HedgeDelay time.Duration
	// HedgeFactor scales the p99-derived hedge delay (default 3).
	HedgeFactor float64
	// MinHedge floors the derived hedge delay (default 500µs).
	MinHedge time.Duration

	// Shard selects the execution strategy: ShardSample (default) or
	// ShardChannel.
	Shard string
	// Debug enables the scheduling decision log: one line per device/shard
	// assignment, written to DecisionLog.
	Debug bool
	// DecisionLog receives decision-log lines when Debug is set (default
	// os.Stderr). Writes are serialized by the pool.
	DecisionLog io.Writer

	// Test seams (package-internal): deterministic clock and timer.
	now   func() time.Time
	after func(time.Duration) <-chan time.Time
}

func (o Options) validate() error {
	if len(o.Specs) == 0 {
		return fmt.Errorf("%w: need at least one device spec", ErrBadPool)
	}
	if o.MaxShards < 0 || o.QuarantineThreshold < 0 || o.ProbeInterval < 0 ||
		o.HedgeDelay < 0 || o.HedgeFactor < 0 || o.MinHedge < 0 {
		return fmt.Errorf("%w: negative option", ErrBadPool)
	}
	if math.IsNaN(o.HedgeFactor) || math.IsInf(o.HedgeFactor, 0) {
		return fmt.Errorf("%w: hedge factor %v is not finite", ErrBadPool, o.HedgeFactor)
	}
	switch o.Shard {
	case "", ShardSample, ShardChannel:
	default:
		return fmt.Errorf("%w: unknown shard strategy %q (want %s|%s)",
			ErrBadPool, o.Shard, ShardSample, ShardChannel)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.MaxShards < 1 {
		o.MaxShards = len(o.Specs)
	}
	if o.QuarantineThreshold < 1 {
		o.QuarantineThreshold = 3
	}
	if o.ProbeInterval < 1 {
		o.ProbeInterval = 50 * time.Millisecond
	}
	if o.HedgeFactor <= 0 {
		o.HedgeFactor = 3
	}
	if o.MinHedge < 1 {
		o.MinHedge = 500 * time.Microsecond
	}
	if o.Shard == "" {
		o.Shard = ShardSample
	}
	if o.Debug && o.DecisionLog == nil {
		o.DecisionLog = os.Stderr
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.after == nil {
		o.after = time.After
	}
	return o
}

// hedgeWarmup is how many shard latencies must be observed before a
// p99-derived hedge delay is trusted.
const hedgeWarmup = 16

// latencyRingSize bounds the shard-latency history the p99 is derived from.
const latencyRingSize = 128

// DevicePool is a farm of registry-opened engines, each carrying its own
// compiled plan of one shared source network, with a sample-sharding
// scheduler on top. It is safe for concurrent ForwardBatch calls.
type DevicePool struct {
	net    *nn.Network
	opts   Options
	devs   []*device
	stride uint64 // engine call indices per sample (0: nothing keyed)
	spec   string // canonical pool spec (Open) or synthesized (New)

	// calls is the pool's logical call frontier: the single counter a
	// lone engine serving every sample in order would have.
	calls atomic.Uint64

	// batchInvariant caches whether every device is noise-free (so
	// co-batching and sharding are invisible for capability queries).
	batchInvariant bool

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// canary is a copy of the first sample ever served, reused by the
	// background probe of quarantined devices.
	canary *tensor.Tensor
	// ring holds recent shard latencies (ns) for the p99 hedge delay;
	// ringI is the write cursor, ringN the filled count.
	ring  [latencyRingSize]float64
	ringI int
	ringN int

	// intraMu serializes channel-sharded requests, which occupy every live
	// device in lockstep (sample-sharded requests run concurrently and
	// never take it).
	intraMu sync.Mutex
	// logMu serializes decision-log writes.
	logMu sync.Mutex

	stop      chan struct{}
	probeDone chan struct{}

	requests    atomic.Uint64
	shardsN     atomic.Uint64
	hedges      atomic.Uint64
	hedgeWins   atomic.Uint64
	quarantines atomic.Uint64
	readmits    atomic.Uint64
	probes      atomic.Uint64
	exhausted   atomic.Uint64
}

// New opens one engine per spec, compiles net onto each, and starts the
// background probe loop. The pool owns the engines; callers must Close it.
func New(net *nn.Network, opts Options) (*DevicePool, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrBadPool)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p := &DevicePool{
		net:            net,
		opts:           opts.withDefaults(),
		batchInvariant: true,
		stop:           make(chan struct{}),
		probeDone:      make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i, spec := range p.opts.Specs {
		eng, err := backend.Open(spec)
		if err != nil {
			return nil, fmt.Errorf("%w: device %d spec %q: %v", ErrBadPool, i, spec, err)
		}
		plan, err := net.Compile(eng)
		if err != nil {
			return nil, fmt.Errorf("%w: device %d spec %q: compile: %v", ErrBadPool, i, spec, err)
		}
		stride, ok := plan.KeyedCallsPerSample()
		noisy := nn.CapabilitiesOf(plan.Engine()).Noisy
		if !ok && noisy {
			return nil, fmt.Errorf("%w: device %d spec %q: plan contains an opaque module, cannot shard a noisy substrate bit-identically", ErrBadPool, i, spec)
		}
		if stride > 0 {
			if p.stride > 0 && stride != p.stride {
				return nil, fmt.Errorf("%w: device %d spec %q: call stride %d differs from pool stride %d", ErrBadPool, i, spec, stride, p.stride)
			}
			p.stride = stride
		}
		if noisy {
			p.batchInvariant = false
		}
		p.devs = append(p.devs, &device{id: i, spec: eng.String(), plan: plan, state: stateLive})
	}
	if p.opts.Shard == ShardChannel {
		for _, d := range p.devs {
			if d.spec != p.devs[0].spec {
				return nil, fmt.Errorf("%w: shard=channel needs a homogeneous pool: device %d spec %q differs from %q (every device must hold the full weight set and seed)",
					ErrBadPool, d.id, d.spec, p.devs[0].spec)
			}
			steps, err := d.plan.ChannelShardSteps()
			if err != nil {
				return nil, fmt.Errorf("%w: shard=channel: device %d: %v", ErrBadPool, d.id, err)
			}
			d.chanSteps = steps
		}
	}
	p.spec = synthesizeSpec(p.opts)
	go p.probeLoop()
	return p, nil
}

// logf emits one scheduling decision-log line (no-op unless Options.Debug).
func (p *DevicePool) logf(format string, args ...any) {
	if !p.opts.Debug || p.opts.DecisionLog == nil {
		return
	}
	p.logMu.Lock()
	fmt.Fprintf(p.opts.DecisionLog, "pool: decision "+format+"\n", args...)
	p.logMu.Unlock()
}

// Source returns the pool's shared network — the serve layer recompiles a
// failover standby from it.
func (p *DevicePool) Source() *nn.Network { return p.net }

// BatchInvariant reports whether a sample's result is independent of its
// co-batched neighbors and of sharding: true when every device is a
// noise-free substrate.
func (p *DevicePool) BatchInvariant() bool { return p.batchInvariant }

// Spec returns the pool's canonical spec string.
func (p *DevicePool) Spec() string { return p.spec }

// Size returns the total number of devices, live or quarantined.
func (p *DevicePool) Size() int { return len(p.devs) }

// Live returns how many devices are currently in rotation.
func (p *DevicePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *DevicePool) liveLocked() int {
	n := 0
	for _, d := range p.devs {
		if d.state == stateLive {
			n++
		}
	}
	return n
}

// EffectiveBatch scales a configured batch ceiling by the live fraction of
// the pool (never below 1) — the graceful-degradation contract: a shrunken
// pool serves smaller batches instead of queueing the same load onto fewer
// devices. The serve layer consults this for its micro-batch ceiling.
func (p *DevicePool) EffectiveBatch(configured int) int {
	if configured < 1 {
		return 1
	}
	eb := configured * p.Live() / len(p.devs)
	if eb < 1 {
		eb = 1
	}
	return eb
}

// Counters is a point-in-time snapshot of the pool's scheduling counters.
type Counters struct {
	// Requests counts ForwardBatch calls; Shards counts logical shards
	// dispatched (retries and hedges are visible in device rows).
	Requests, Shards uint64
	// Hedges counts duplicate shard dispatches; HedgeWins counts the ones
	// whose duplicate finished first. The loser's shots are real
	// illuminations and stay in the global jtc shot accounting.
	Hedges, HedgeWins uint64
	// Quarantines / Readmits / Probes count the device state machine's
	// transitions and background canary probes.
	Quarantines, Readmits, Probes uint64
	// Exhausted counts requests refused because zero devices were live.
	Exhausted uint64
}

// Counters returns the pool's scheduling counters.
func (p *DevicePool) Counters() Counters {
	return Counters{
		Requests:    p.requests.Load(),
		Shards:      p.shardsN.Load(),
		Hedges:      p.hedges.Load(),
		HedgeWins:   p.hedgeWins.Load(),
		Quarantines: p.quarantines.Load(),
		Readmits:    p.readmits.Load(),
		Probes:      p.probes.Load(),
		Exhausted:   p.exhausted.Load(),
	}
}

// Close stops the probe loop and refuses further ForwardBatch calls.
// In-flight requests must drain before Close (the serve layer's Close does
// this); probes in flight finish.
func (p *DevicePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	close(p.stop)
	<-p.probeDone
}

func (p *DevicePool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ForwardBatch runs one NCHW batch with the single-engine per-sample batch
// contract: results are bit-identical to one engine of the devices' spec
// serving every request in order, including keyed readout noise — sample
// sharding, device choice, retries, and hedged duplicates are all invisible
// in the output. Shards fail over across live devices; the request errors
// only when a shard has exhausted every live device (ErrPoolExhausted when
// none remain at all).
func (p *DevicePool) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x == nil || x.Rank() != 4 {
		return nil, fmt.Errorf("pool: %w: ForwardBatch wants NCHW input", nn.ErrShapeMismatch)
	}
	n := x.Shape[0]
	if n < 1 {
		return nil, fmt.Errorf("pool: %w: empty batch", nn.ErrShapeMismatch)
	}
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	req := p.requests.Add(1)
	p.ensureCanary(x)
	// Reserve the request's call block on the logical frontier exactly as
	// the single-engine ForwardBatch would have.
	base := p.calls.Add(uint64(n)*p.stride) - uint64(n)*p.stride
	if p.opts.Shard == ShardChannel {
		return p.forwardChannel(x, base, req)
	}
	live := p.Live()
	if live == 0 {
		p.exhausted.Add(1)
		return nil, p.exhaustedErr(nil)
	}
	shards := min(live, n, p.opts.MaxShards)
	order := p.stripeOrder(shards)
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	perSample := c * h * w
	type shardOut struct {
		lo  int
		out *tensor.Tensor
		err error
	}
	results := make([]shardOut, shards)
	var wg sync.WaitGroup
	per, rem, lo := n/shards, n%shards, 0
	for i := 0; i < shards; i++ {
		m := per
		if i < rem {
			m++
		}
		hi := lo + m
		view := &tensor.Tensor{Shape: []int{m, c, h, w}, Data: x.Data[lo*perSample : hi*perSample]}
		var hint *device
		if i < len(order) {
			hint = order[i]
		}
		wg.Add(1)
		go func(i, lo int, view *tensor.Tensor, hint *device) {
			defer wg.Done()
			out, err := p.runShard(req, base, lo, view, hint)
			results[i] = shardOut{lo: lo, out: out, err: err}
		}(i, lo, view, hint)
		lo = hi
	}
	wg.Wait()
	p.shardsN.Add(uint64(shards))
	var out *tensor.Tensor
	rowLen := 0
	for _, r := range results {
		if r.err != nil {
			if errors.Is(r.err, ErrPoolExhausted) {
				p.exhausted.Add(1)
			}
			return nil, r.err
		}
		if out == nil {
			shape := append([]int{n}, r.out.Shape[1:]...)
			out = tensor.New(shape...)
			rowLen = r.out.Size() / r.out.Shape[0]
		}
		copy(out.Data[r.lo*rowLen:], r.out.Data)
	}
	return out, nil
}

// ensureCanary keeps a copy of the first sample served, for probing.
func (p *DevicePool) ensureCanary(x *tensor.Tensor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.canary != nil {
		return
	}
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	p.canary = tensor.New(1, c, h, w)
	copy(p.canary.Data, x.Data[:c*h*w])
}

func (p *DevicePool) exhaustedErr(last error) error {
	if last == nil {
		p.mu.Lock()
		for _, d := range p.devs {
			if d.lastErr != nil {
				last = d.lastErr
			}
		}
		p.mu.Unlock()
	}
	if last != nil {
		return fmt.Errorf("%w (last device error: %w)", ErrPoolExhausted, last)
	}
	return ErrPoolExhausted
}

type shardResult struct {
	out *tensor.Tensor
	err error
}

// runShard executes samples [lo, lo+m) of the request's call block,
// retrying across live devices (each at most once) and hedging stragglers.
// The first attempt honors the dispatch-time stripe hint; retries fall back
// to the scored acquire.
func (p *DevicePool) runShard(req, base uint64, lo int, view *tensor.Tensor, hint *device) (*tensor.Tensor, error) {
	tried := make(map[*device]bool)
	var lastErr error
	for {
		d := p.acquireHinted(hint, tried)
		hint = nil
		if d == nil {
			break
		}
		tried[d] = true
		out, err := p.runHedged(req, d, tried, base, lo, view)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	if p.Live() == 0 {
		return nil, p.exhaustedErr(lastErr)
	}
	return nil, fmt.Errorf("pool: shard failed on every live device: %w", lastErr)
}

// runHedged runs one shard attempt on d, dispatching a duplicate to the
// healthiest idle device if d outlives the hedge delay. The first result
// wins; a first result that is an error waits for the duplicate instead of
// discarding it. The loser is not interrupted — its shots are real and stay
// counted — but its result is dropped.
func (p *DevicePool) runHedged(req uint64, d *device, tried map[*device]bool, base uint64, lo int, view *tensor.Tensor) (*tensor.Tensor, error) {
	primary := make(chan shardResult, 1)
	go p.execOn(req, d, base, lo, view, primary)
	delay := p.hedgeDelay()
	if delay <= 0 {
		r := <-primary
		return r.out, r.err
	}
	var hedge chan shardResult
	select {
	case r := <-primary:
		return r.out, r.err
	case <-p.opts.after(delay):
		h := p.acquireIdle(tried)
		if h == nil {
			r := <-primary
			return r.out, r.err
		}
		tried[h] = true
		p.hedges.Add(1)
		hedge = make(chan shardResult, 1)
		go p.execOn(req, h, base, lo, view, hedge)
	}
	select {
	case r := <-primary:
		if r.err == nil {
			return r.out, nil
		}
		r2 := <-hedge
		if r2.err == nil {
			p.hedgeWins.Add(1)
			return r2.out, nil
		}
		return nil, r.err
	case r := <-hedge:
		if r.err == nil {
			p.hedgeWins.Add(1)
			return r.out, nil
		}
		r2 := <-primary
		if r2.err == nil {
			return r2.out, nil
		}
		return nil, r2.err
	}
}

// execOn aligns d's engine counter to the shard's call block and runs it.
// The device lock serializes alignment and execution — one shard occupies
// one physical device at a time, which is what makes alignment sound.
func (p *DevicePool) execOn(req uint64, d *device, base uint64, lo int, view *tensor.Tensor, ch chan<- shardResult) {
	p.logf("req=%d mode=sample dev=%d base=%d samples=[%d,%d)", req, d.id, base, lo, lo+view.Shape[0])
	d.run.Lock()
	start := time.Now()
	d.plan.AlignEngineCalls(base + uint64(lo)*p.stride)
	out, err := d.plan.ForwardBatch(view)
	elapsed := time.Since(start)
	d.run.Unlock()
	p.noteShard(d, view.Shape[0], elapsed, err)
	ch <- shardResult{out: out, err: err}
}

// hedgeDelay returns the current hedge delay: the configured override, or
// HedgeFactor times the observed shard-latency p99 (floored by MinHedge)
// once hedgeWarmup shards have completed. 0 disables hedging for this
// shard.
func (p *DevicePool) hedgeDelay() time.Duration {
	if !p.opts.Hedge {
		return 0
	}
	if p.opts.HedgeDelay > 0 {
		return p.opts.HedgeDelay
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ringN < hedgeWarmup {
		return 0
	}
	n := min(p.ringN, latencyRingSize)
	lat := make([]float64, n)
	copy(lat, p.ring[:n])
	sort.Float64s(lat)
	p99 := lat[(n*99)/100]
	d := time.Duration(p99 * p.opts.HedgeFactor)
	if d < p.opts.MinHedge {
		d = p.opts.MinHedge
	}
	return d
}

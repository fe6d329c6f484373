package pool

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/fault"
	"photofourier/internal/nn"
	"photofourier/internal/tensor"
)

func poolNets() []*nn.Network {
	return []*nn.Network{
		nn.SmallCNN([2]int{4, 8}, 10, 99),
		nn.AlexNetS(10, 99),
	}
}

func poolBatch(seed int64, n int) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	x.RandN(rand.New(rand.NewSource(seed)), 1)
	return x
}

func repeatSpec(spec string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

// waitDeviceShards blocks until the pool's devices have completed at least
// want shard attempts in total (hedge losers finish asynchronously).
func waitDeviceShards(t *testing.T, p *DevicePool, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var total uint64
		for _, row := range p.DeviceHealth() {
			total += row.Shards
		}
		if total >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("devices completed %d shard attempts, want >= %d", total, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func mustPool(t *testing.T, net *nn.Network, opts Options) *DevicePool {
	t.Helper()
	p, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestPoolGoldenMatchesSingleEngine is the sharding acceptance matrix: a
// pool of same-spec devices serving a sequence of batched requests is
// bit-identical to ONE engine of that spec serving the same sequence —
// including the noisy operating point, whose readout substreams are keyed
// by call index. Pool size, shard boundaries, and device choice must all be
// invisible.
func TestPoolGoldenMatchesSingleEngine(t *testing.T) {
	specs := []string{
		"accelerator?workers=1",
		"accelerator?tiled=true,workers=1",
		"accelerator-noisy?workers=1",
	}
	batches := []int{1, 5, 8}
	for _, net := range poolNets() {
		for _, spec := range specs {
			// One reference engine serving every request in order.
			eng, err := backend.Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			single, err := net.Compile(eng)
			if err != nil {
				t.Fatal(err)
			}
			var wants []*tensor.Tensor
			for r, n := range batches {
				w, err := single.ForwardBatch(poolBatch(int64(100+r), n))
				if err != nil {
					t.Fatal(err)
				}
				wants = append(wants, w)
			}
			for _, size := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/size=%d", net.Name, spec, size)
				p := mustPool(t, net, Options{Specs: repeatSpec(spec, size)})
				for r, n := range batches {
					got, err := p.ForwardBatch(poolBatch(int64(100+r), n))
					if err != nil {
						t.Fatalf("%s: request %d: %v", name, r, err)
					}
					want := wants[r]
					if len(got.Data) != len(want.Data) {
						t.Fatalf("%s: request %d: size %d vs %d", name, r, len(got.Data), len(want.Data))
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s: request %d diverged at %d: %v vs %v", name, r, i, got.Data[i], want.Data[i])
						}
					}
				}
				p.Close()
			}
		}
	}
}

// TestPoolStride pins the sharding stride to the networks' engine-backed
// layer counts — the quantity the keying proof rests on.
func TestPoolStride(t *testing.T) {
	for _, tc := range []struct {
		net    *nn.Network
		stride uint64
	}{
		{nn.SmallCNN([2]int{4, 8}, 10, 99), 2},
		{nn.AlexNetS(10, 99), 3},
	} {
		p := mustPool(t, tc.net, Options{Specs: repeatSpec("accelerator?workers=1", 2)})
		if p.stride != tc.stride {
			t.Errorf("%s: stride %d, want %d", tc.net.Name, p.stride, tc.stride)
		}
		if p.BatchInvariant() != true {
			t.Errorf("%s: noise-free pool must be batch-invariant", tc.net.Name)
		}
		p.Close()
	}
}

// TestPoolChaosOutageMidRun is the chaos acceptance scenario: one of four
// devices dies mid-run (call-indexed outage on the shared logical
// frontier). Every request must complete with bit-exact results, and the
// dead device must end up quarantined while the pool keeps serving.
func TestPoolChaosOutageMidRun(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	healthy := "accelerator?workers=1"
	dying := "accelerator?workers=1,fault=outage:30,faultseed=3"
	eng, err := backend.Open(healthy)
	if err != nil {
		t.Fatal(err)
	}
	single, err := net.Compile(eng)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 1: the health score already steers shards away from a
	// faulted device, so on one CPU it may never accumulate a longer
	// consecutive-fault run — one outage fault is enough evidence here.
	p := mustPool(t, net, Options{
		Specs:               append(repeatSpec(healthy, 3), dying),
		QuarantineThreshold: 1,
		ProbeInterval:       time.Millisecond,
	})
	const requests, batch = 24, 6
	for r := 0; r < requests; r++ {
		x := poolBatch(int64(500+r), batch)
		want, err := single.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ForwardBatch(x)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("request %d diverged at %d", r, i)
			}
		}
	}
	rows := p.DeviceHealth()
	if rows[3].State != "quarantined" {
		t.Fatalf("dying device not quarantined: %+v", rows[3])
	}
	if rows[3].Faults == 0 {
		t.Fatalf("dying device shows no faults: %+v", rows[3])
	}
	c := p.Counters()
	if c.Quarantines == 0 || c.Exhausted != 0 {
		t.Fatalf("counters: %+v", c)
	}
	if p.Live() != 3 {
		t.Fatalf("live %d, want 3", p.Live())
	}
	if eb := p.EffectiveBatch(8); eb != 6 {
		t.Fatalf("EffectiveBatch(8) = %d with 3/4 live, want 6", eb)
	}
}

// TestPoolConcurrentChaos hammers a pool (one device dying mid-run) from
// many goroutines; every request must complete with zero wrong answers —
// verified against per-request single-engine results, which is exact
// because the substrate is noise-free.
func TestPoolConcurrentChaos(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	healthy := "accelerator?workers=1"
	eng, err := backend.Open(healthy)
	if err != nil {
		t.Fatal(err)
	}
	single, err := net.Compile(eng)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPool(t, net, Options{
		Specs:               append(repeatSpec(healthy, 3), "accelerator?workers=1,fault=outage:20,faultseed=9"),
		QuarantineThreshold: 1,
		ProbeInterval:       time.Millisecond,
	})
	const clients, perClient = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				n := 1 + (c+r)%4
				x := poolBatch(int64(c*100+r), n)
				got, err := p.ForwardBatch(x)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, r, err)
					return
				}
				want, err := single.ForwardBatch(x)
				if err != nil {
					t.Errorf("client %d request %d reference: %v", c, r, err)
					return
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("client %d request %d wrong answer at %d", c, r, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if c := p.Counters(); c.Exhausted != 0 {
		t.Fatalf("requests exhausted: %+v", c)
	}
}

// TestPoolExhausted: when every device is dead and quarantined, a request
// fails with ErrPoolExhausted still carrying the device-fault chain.
func TestPoolExhausted(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:               repeatSpec("accelerator?workers=1,fault=outage:1,faultseed=1", 2),
		QuarantineThreshold: 1,
	})
	_, err := p.ForwardBatch(poolBatch(1, 2))
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err %v, want ErrPoolExhausted", err)
	}
	if !errors.Is(err, fault.ErrDeviceFault) {
		t.Fatalf("err %v lost the device-fault chain", err)
	}
	if p.Live() != 0 {
		t.Fatalf("live %d, want 0", p.Live())
	}
	if eb := p.EffectiveBatch(8); eb != 1 {
		t.Fatalf("EffectiveBatch(8) = %d with no live devices, want 1", eb)
	}
	// Second request fails fast on the empty pool.
	if _, err := p.ForwardBatch(poolBatch(2, 1)); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("empty-pool err %v, want ErrPoolExhausted", err)
	}
	if c := p.Counters(); c.Exhausted < 2 {
		t.Fatalf("exhausted counter %d, want >= 2", c.Exhausted)
	}
}

// TestPoolProbeReadmit exercises the probe/readmit half of the state
// machine deterministically: a healthy device is forced into quarantine,
// then one probe pass readmits it (canary succeeds) and it serves again.
func TestPoolProbeReadmit(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:         repeatSpec("accelerator?workers=1", 2),
		ProbeInterval: time.Hour, // probes only when invoked directly
	})
	if _, err := p.ForwardBatch(poolBatch(1, 2)); err != nil {
		t.Fatal(err) // also records the canary
	}
	p.mu.Lock()
	p.devs[1].state = stateQuarantined
	p.devs[1].consecFaults = 3
	p.mu.Unlock()
	if p.Live() != 1 {
		t.Fatalf("live %d, want 1", p.Live())
	}
	p.probeQuarantined()
	p.mu.Lock()
	state, faults := p.devs[1].state, p.devs[1].consecFaults
	p.mu.Unlock()
	if state != stateLive || faults != 0 {
		t.Fatalf("device not readmitted: state=%v consecFaults=%d", state, faults)
	}
	c := p.Counters()
	if c.Probes != 1 || c.Readmits != 1 {
		t.Fatalf("counters after readmit: %+v", c)
	}
	if _, err := p.ForwardBatch(poolBatch(2, 2)); err != nil {
		t.Fatalf("post-readmit request: %v", err)
	}
}

// TestPoolProbeKeepsDeadDeviceOut: a permanently dead device keeps failing
// its canary probes and never flaps back into rotation.
func TestPoolProbeKeepsDeadDeviceOut(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs:               []string{"accelerator?workers=1", "accelerator?workers=1,fault=outage:1,faultseed=1"},
		QuarantineThreshold: 1,
		ProbeInterval:       time.Hour,
	})
	// Drive requests until the dead device has faulted and been quarantined.
	for r := 0; r < 4; r++ {
		if _, err := p.ForwardBatch(poolBatch(int64(r), 2)); err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
	if p.Live() != 1 {
		t.Fatalf("live %d after outage, want 1", p.Live())
	}
	for i := 0; i < 3; i++ {
		p.probeQuarantined()
	}
	if p.Live() != 1 {
		t.Fatal("dead device flapped back in despite failing probes")
	}
	rows := p.DeviceHealth()
	if rows[1].State != "quarantined" || rows[1].Probes != 3 || rows[1].Readmits != 0 {
		t.Fatalf("dead device row: %+v", rows[1])
	}
	if rows[1].LastError == "" {
		t.Fatalf("dead device should surface its last error: %+v", rows[1])
	}
}

// TestPoolHedgeDispatch forces the hedge path deterministically: the timer
// seam fires the hedge delay immediately, so the single shard of a
// one-sample request is re-dispatched to the idle second device before the
// primary finishes (on one CPU the primary goroutine cannot even have
// started). The duplicate is bit-identical, so whichever copy wins, the
// result matches the single-engine reference.
func TestPoolHedgeDispatch(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	spec := "accelerator?workers=1"
	eng, err := backend.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	single, err := net.Compile(eng)
	if err != nil {
		t.Fatal(err)
	}
	hedgeDelay := 123 * time.Nanosecond
	opts := Options{
		Specs:      repeatSpec(spec, 2),
		MaxShards:  1,
		Hedge:      true,
		HedgeDelay: hedgeDelay,
		after: func(d time.Duration) <-chan time.Time {
			if d == hedgeDelay {
				ch := make(chan time.Time, 1)
				ch <- time.Time{}
				return ch
			}
			return make(chan time.Time) // probe loop: never fires
		},
	}
	p := mustPool(t, net, opts)
	for r := 0; r < 3; r++ {
		// The hedge loser finishes in the background and holds its device
		// until then; wait for both devices to drain so every request
		// finds an idle hedge target.
		waitDeviceShards(t, p, uint64(2*r))
		x := poolBatch(int64(40+r), 1)
		want, err := single.ForwardBatch(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ForwardBatch(x)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("hedged request %d diverged at %d", r, i)
			}
		}
	}
	waitDeviceShards(t, p, 6)
	c := p.Counters()
	if c.Hedges != 3 {
		t.Fatalf("hedges %d, want 3 (one per request)", c.Hedges)
	}
	// Both devices did real work: duplicate shots are counted, not hidden.
	rows := p.DeviceHealth()
	if rows[0].Shards+rows[1].Shards != 6 {
		t.Fatalf("shard attempts %d+%d, want 6 (3 primaries + 3 hedges)", rows[0].Shards, rows[1].Shards)
	}
}

// TestPoolHedgeRecoversFromDeadPrimary: when the primary shard lands on a
// dead device, the hedged duplicate on the healthy device answers the
// request — the error result loses to the clean one regardless of arrival
// order.
func TestPoolHedgeRecoversFromDeadPrimary(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	hedgeDelay := 123 * time.Nanosecond
	p := mustPool(t, net, Options{
		Specs:      []string{"accelerator?workers=1,fault=outage:1,faultseed=1", "accelerator?workers=1"},
		MaxShards:  1,
		Hedge:      true,
		HedgeDelay: hedgeDelay,
		after: func(d time.Duration) <-chan time.Time {
			if d == hedgeDelay {
				ch := make(chan time.Time, 1)
				ch <- time.Time{}
				return ch
			}
			return make(chan time.Time)
		},
	})
	for r := 0; r < 4; r++ {
		if _, err := p.ForwardBatch(poolBatch(int64(r), 1)); err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
	}
	if c := p.Counters(); c.Exhausted != 0 {
		t.Fatalf("hedged requests exhausted: %+v", c)
	}
}

// TestPoolValidation pins New's rejection surface.
func TestPoolValidation(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	bad := []Options{
		{},
		{Specs: []string{"no-such-backend"}},
		{Specs: []string{"accelerator?nta=-3"}},
		{Specs: []string{"accelerator"}, MaxShards: -1},
		{Specs: []string{"accelerator"}, HedgeFactor: -1},
		{Specs: []string{"accelerator"}, HedgeFactor: math.NaN()},
		{Specs: []string{"accelerator"}, HedgeFactor: math.Inf(1)},
		{Specs: []string{"accelerator"}, Shard: "pipeline"}, // removed strategy
	}
	for _, opts := range bad {
		if _, err := New(net, opts); !errors.Is(err, ErrBadPool) {
			t.Errorf("New(%+v) err %v, want ErrBadPool", opts, err)
		}
	}
	if _, err := New(nil, Options{Specs: []string{"accelerator"}}); !errors.Is(err, ErrBadPool) {
		t.Errorf("nil network accepted: %v", err)
	}
}

// TestPoolClosed: ForwardBatch on a closed pool fails fast with
// ErrPoolClosed; Close is idempotent.
func TestPoolClosed(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p, err := New(net, Options{Specs: []string{"accelerator?workers=1"}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := p.ForwardBatch(poolBatch(1, 1)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err %v, want ErrPoolClosed", err)
	}
}

// TestPoolHeterogeneousSpecs: devices of different specs still shard the
// noise-free contract correctly (results equal the single-engine reference
// of either spec when both are exact substrates at the same operating
// point is NOT generally true; what must hold is that every request
// completes and shapes are right).
func TestPoolHeterogeneousSpecs(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p := mustPool(t, net, Options{
		Specs: []string{"accelerator?workers=1", "accelerator?tiled=true,workers=1"},
	})
	out, err := p.ForwardBatch(poolBatch(7, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[0] != 4 || out.Shape[1] != 10 {
		t.Fatalf("output shape %v, want [4 10]", out.Shape)
	}
}

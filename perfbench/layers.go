package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"photofourier/internal/backend"
	"photofourier/internal/jtc"
	"photofourier/internal/nn"
	"photofourier/internal/pool"
	"photofourier/internal/tensor"
	"photofourier/internal/tiling"
)

// stepStat is one compiled step timed on a replica of one pool device.
type stepStat struct {
	index int
	kind  string
	// ms is the median wall time of one call at the per-device batch size;
	// allocKB is heap allocated per call.
	ms, allocKB float64
	// shots and ktransforms are per sample.
	shots, ktransforms float64
	// modelNs is the arch performance model's time for the step: a
	// modeled comparison column, not a measurement.
	modelNs float64
}

func (s stepStat) name() string { return fmt.Sprintf("s%d-%s", s.index, s.kind) }

// stepKind shortens a plan step name ("conv(planned)", "globalavgpool").
func stepKind(name string) string {
	kind, _, _ := strings.Cut(name, "(")
	if kind == "globalavgpool" {
		return "gap"
	}
	return kind
}

// maxReps caps the timed calls of one step.
const maxReps = 500

// stepRunner runs one step once on its input and returns the output and
// the time the step counts for.
type stepRunner func(x *tensor.Tensor) (*tensor.Tensor, time.Duration, error)

// timed turns a plain step call into a stepRunner counting its wall time.
func timed(run func(x *tensor.Tensor) (*tensor.Tensor, error)) stepRunner {
	return func(x *tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
		t0 := time.Now()
		out, err := run(x)
		return out, time.Since(t0), err
	}
}

// profileSteps times every compiled step of the workload's network on a
// replica plan of the pool's first device, at the batch one device runs per
// executor call. Steps come from ChannelShardSteps, whose CPU steps run the
// plan's own step code. A conv step runs as the device runs it: on a
// channel-sharded pool as two channel ranges, reporting the slower; on a
// sample-sharded pool as a one-module plan's ForwardBatch, because
// ForwardSteps takes the per-sample conv kernel for more than one sample
// while the device's ForwardBatch takes the batch kernel.
func profileSteps(w *workload, x *tensor.Tensor, tr *tracer, budget time.Duration) ([]stepStat, error) {
	o, err := pool.ParseSpec(w.poolSpec)
	if err != nil {
		return nil, err
	}
	eng, err := backend.Open(o.Specs[0])
	if err != nil {
		return nil, fmt.Errorf("open replica %q: %w", o.Specs[0], err)
	}
	net := w.net()
	plan, err := net.Compile(eng)
	if err != nil {
		return nil, fmt.Errorf("compile replica: %w", err)
	}
	metas, err := plan.StepMetas(x.Shape[1], x.Shape[2], x.Shape[3])
	if err != nil {
		return nil, err
	}
	costs := pool.StepCosts(metas)
	runners, err := stepRunners(net, eng, plan, o.Shard == pool.ShardChannel)
	if err != nil {
		return nil, err
	}
	n := float64(x.Shape[0])
	per := budget / time.Duration(len(runners))
	stats := make([]stepStat, len(runners))
	cur := x
	for k, run := range runners {
		st := stepStat{index: k, kind: stepKind(metas[k].Name), modelNs: costs[k] * 1e9}
		// One untimed call fills lazy caches and yields the next input.
		next, _, err := run(cur)
		if err != nil {
			return nil, fmt.Errorf("step %s: %w", st.name(), err)
		}
		times := make([]float64, 0, maxReps)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		shots0, kt0 := jtc.Shots(), tiling.KernelTileTransforms()
		begin := time.Now()
		for len(times) < 3 || (time.Since(begin) < per && len(times) < maxReps) {
			out, d, err := run(cur)
			if err != nil {
				return nil, fmt.Errorf("step %s: %w", st.name(), err)
			}
			times = append(times, ms(d))
			tensor.PutScratch(out)
		}
		shots1, kt1 := jtc.Shots(), tiling.KernelTileTransforms()
		runtime.ReadMemStats(&m1)
		reps := float64(len(times))
		st.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / reps / 1024
		st.shots = float64(shots1-shots0) / reps / n
		st.ktransforms = float64(kt1-kt0) / reps / n
		st.ms = median(times)
		tr.step("nn."+st.name(), begin, time.Now())
		stats[k] = st
		if cur != x {
			tensor.PutScratch(cur)
		}
		cur = next
	}
	return stats, nil
}

// stepRunners builds one runner per compiled step (see profileSteps).
func stepRunners(net *nn.Network, eng nn.ConvEngine, plan *nn.NetworkPlan, channel bool) ([]stepRunner, error) {
	steps, err := plan.ChannelShardSteps()
	if err != nil {
		return nil, err
	}
	seq, ok := net.Root.(*nn.Sequential)
	if !ok || len(seq.Modules) != len(steps) {
		return nil, fmt.Errorf("network %s is not a flat sequence of %d steps", net.Name, len(steps))
	}
	const devices = 2
	runners := make([]stepRunner, len(steps))
	for k, st := range steps {
		switch {
		case st.Range == nil:
			runners[k] = timed(st.Run)
		case channel:
			rp := st.Range
			ranges := pool.SplitChannels(rp.OutChannels(), devices)
			first := uint64(k + 1)
			runners[k] = func(x *tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
				return runRanges(rp, ranges, x, first)
			}
		default:
			sub := &nn.Network{Name: fmt.Sprintf("%s-s%d", net.Name, k), Root: &nn.Sequential{Modules: []nn.Module{seq.Modules[k]}}}
			p, err := sub.Compile(eng)
			if err != nil {
				return nil, fmt.Errorf("compile step %d: %w", k, err)
			}
			runners[k] = timed(p.ForwardBatch)
		}
	}
	return runners, nil
}

// runRanges executes one conv step as the pool's channel ranges, one after
// the other, each as BeginBatchRange then Finish against the combined
// scales; it merges their outputs as the pool does and returns the slower
// range's time, the one a request waits for while the pool runs the ranges
// on separate devices at once.
func runRanges(rp nn.ChannelRangePlan, ranges [][2]int, x *tensor.Tensor, first uint64) (*tensor.Tensor, time.Duration, error) {
	runs := make([]nn.ChannelRangeRun, len(ranges))
	maxima := make([]nn.RangeMaxima, len(ranges))
	spent := make([]time.Duration, len(ranges))
	release := func(rs []nn.ChannelRangeRun) {
		for _, r := range rs {
			r.Release()
		}
	}
	for i, r := range ranges {
		t0 := time.Now()
		run, err := rp.BeginBatchRange(x, r[0], r[1], first, 1)
		spent[i] = time.Since(t0)
		if err != nil {
			release(runs[:i])
			return nil, 0, err
		}
		runs[i], maxima[i] = run, run.Maxima()
	}
	scales, err := nn.CombineRangeScales(maxima)
	if err != nil {
		release(runs)
		return nil, 0, err
	}
	n, cout := x.Shape[0], rp.OutChannels()
	var merged *tensor.Tensor
	for i, r := range ranges {
		t0 := time.Now()
		part, err := runs[i].Finish(scales)
		spent[i] += time.Since(t0)
		if err != nil {
			release(runs[i+1:])
			if merged != nil {
				tensor.PutScratch(merged)
			}
			return nil, 0, err
		}
		oh, ow := part.Shape[2], part.Shape[3]
		if merged == nil {
			merged = tensor.GetScratch(n, cout, oh, ow)
		}
		plane, rc := oh*ow, r[1]-r[0]
		for b := 0; b < n; b++ {
			copy(merged.Data[(b*cout+r[0])*plane:(b*cout+r[1])*plane], part.Data[b*rc*plane:(b+1)*rc*plane])
		}
		tensor.PutScratch(part)
	}
	return merged, slices.Max(spent), nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"photofourier/internal/pool"
	"photofourier/internal/tensor"
)

// timedExec is the serve.Executor the benchmark hands the session: the pool
// itself (its optional interfaces are promoted, so the session sees the same
// batch ceiling, health rows and source network), with ForwardBatch wrapped
// to record a span when a tracer is attached.
type timedExec struct {
	*pool.DevicePool
	tr atomic.Pointer[tracer]
}

func (e *timedExec) ForwardBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	tr := e.tr.Load()
	if tr == nil {
		return e.DevicePool.ForwardBatch(x)
	}
	start := time.Now()
	out, err := e.DevicePool.ForwardBatch(x)
	tr.batch(x, start, time.Now())
	return out, err
}

// Span names recorded by the benchmark, at the boundaries it calls into.
const (
	spanInfer   = "serve.Session.Infer"
	spanForward = "pool.ForwardBatch"
)

// span is one recorded interval. Times are nanoseconds since the tracer
// started; Parent 0 marks a root, and Req 0 a span outside any request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	byFirst map[float64]int // input index by first element, read-only

	mu     sync.Mutex
	nextID int64
	// inflight[i] is the Infer span id of the request currently carrying
	// input i; a frame never carries one input twice.
	inflight []int64
	spans    []span
	forward  []time.Duration
}

func newTracer(byFirst map[float64]int) *tracer {
	return &tracer{t0: time.Now(), byFirst: byFirst, inflight: make([]int64, len(byFirst))}
}

func (t *tracer) rel(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// beginInfer allocates the Infer span id of a request about to carry input
// in; the id doubles as the request id.
func (t *tracer) beginInfer(in int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.inflight[in] = t.nextID
	return t.nextID
}

func (t *tracer) endInfer(j job, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: j.inferID, Req: j.inferID, Name: spanInfer, Start: t.rel(start), End: t.rel(end)})
}

// batch records one executor call as a child span of every request whose
// sample is a row of x. The session stacks copies of the request inputs, so
// a row's first element names its input.
func (t *tracer) batch(x *tensor.Tensor, start, end time.Time) {
	per := len(x.Data) / x.Shape[0]
	t.mu.Lock()
	defer t.mu.Unlock()
	t.forward = append(t.forward, end.Sub(start))
	for b := 0; b < x.Shape[0]; b++ {
		in, ok := t.byFirst[x.Data[b*per]]
		if !ok {
			continue
		}
		req := t.inflight[in]
		t.nextID++
		t.spans = append(t.spans, span{ID: t.nextID, Parent: req, Req: req, Name: spanForward, Start: t.rel(start), End: t.rel(end)})
	}
}

// step records one timed call outside any request.
func (t *tracer) step(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Name: name, Start: t.rel(start), End: t.rel(end)})
}

// serveSplit derives, per traced request, the wait before its first
// executor call and its self time: the Infer span minus the part its
// executor spans cover.
func (t *tracer) serveSplit() (wait, self []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Name == spanForward {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Name != spanInfer || len(kids[s.ID]) == 0 {
			continue
		}
		first, covered := kids[s.ID][0].Start, int64(0)
		lo := s.Start
		for _, k := range kids[s.ID] { // executor calls of one request never overlap
			first = min(first, k.Start)
			a, b := max(k.Start, lo), min(k.End, s.End)
			if b > a {
				covered += b - a
				lo = b
			}
		}
		wait = append(wait, float64(first-s.Start)/1e6)
		self = append(self, float64(s.End-s.Start-covered)/1e6)
	}
	return wait, self
}

func (t *tracer) forwardMs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	xs := make([]float64, len(t.forward))
	for i, d := range t.forward {
		xs[i] = ms(d)
	}
	return xs
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

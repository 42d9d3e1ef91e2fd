// Package serve is the network serving front end: a model registry over
// compiled runtime plans, a dynamic batcher that coalesces concurrent
// requests into Plan.RunBatch calls, and the HTTP handler plus
// load-generator harness built on top of them.
//
// The batcher is the heart of the package. Each model gets one batcher
// goroutine that pulls requests off a bounded admission queue and runs them
// on at most MaxInFlight concurrent RunBatch flushes. The gather is
// work-conserving: a request that finds a flight slot free flushes at once
// with whatever the burst already queued, so an idle server never waits.
// While every slot is busy the batcher keeps taking requests into the next
// batch (up to MaxBatch chunks), so batches grow exactly when the server is
// loaded. When the batch is full and every slot is still busy the batcher
// stalls, the queue fills, and new submissions are rejected with
// ErrOverloaded (HTTP 429) — admission control instead of unbounded
// buffering.
package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// ErrOverloaded rejects a submission because the bounded admission queue is
// full (the executor pool cannot drain flushes fast enough). HTTP maps it
// to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: overloaded: admission queue full")

// ErrClosed rejects a submission because the batcher is shutting down.
// HTTP maps it to 503 Service Unavailable.
var ErrClosed = errors.New("serve: closed")

// ErrInvalidInput wraps every shape-validation failure of Submit: the
// caller's fault, which HTTP maps to 400 Bad Request.
var ErrInvalidInput = errors.New("serve: invalid input")

// Config tunes one model's dynamic batcher. The zero value serves with the
// documented defaults.
type Config struct {
	// MaxBatch stops a batch growing once its pending compiled-batch chunk
	// count reaches it (default 32). A single request larger than MaxBatch
	// is admitted and flushed alone, never split.
	MaxBatch int
	// Deprecated: SLO is ignored. The batcher never waits on a timer: it
	// flushes as soon as a flight slot is free (see MaxInFlight). The field
	// is removed once benchmark/trace.go stops setting it (ROADMAP item
	// 1(a)).
	SLO time.Duration
	// QueueDepth bounds the admission queue in requests (default 1024);
	// submissions beyond it fail with ErrOverloaded.
	QueueDepth int
	// Workers is the RunBatch worker count per flush (default GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrent RunBatch flushes (default 2), and it is
	// the batcher's only load signal: a gathered batch flushes the moment
	// one of these slots is free, and it grows only while all of them are
	// busy. One flush filling while one drains keeps the executor pool
	// busy without unbounded checkout growth.
	MaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = goruntime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	return c
}

// request is one submitted inference: its input (batch dim = chunks ×
// compiled batch), the chunk count, when it was admitted, and the channel
// its result comes back on (buffered so the flusher never blocks on
// delivery).
type request struct {
	input    *tensor.Tensor
	chunks   int
	admitted time.Time
	resp     chan result
}

type result struct {
	out *tensor.Tensor
	err error
}

// Batcher coalesces concurrent Submit calls into Plan.RunBatch batches for
// one model. Create with NewBatcher, stop with Close.
type Batcher struct {
	plan *runtime.Plan
	cfg  Config
	eps  *metrics.EndpointStats // captured once at construction; nil-safe

	queue   chan *request
	done    chan struct{}
	drained chan struct{}
	flight  chan struct{} // in-flight flush semaphore

	mu     sync.RWMutex // guards closed against racing Submit/Close
	closed bool

	flushes sync.WaitGroup

	// flushHook, when non-nil, runs inside each flush goroutine before
	// RunBatch. Test-only: lets tests stall the flush path to force queue
	// pressure and coalescing deterministically.
	flushHook func()
}

// NewBatcher starts the batcher goroutine for plan, registering its
// endpoint metrics series under name (the recorder is resolved once here;
// enable metrics before constructing batchers).
func NewBatcher(name string, plan *runtime.Plan, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	b := &Batcher{
		plan:    plan,
		cfg:     cfg,
		eps:     metrics.Get().Endpoint(name),
		queue:   make(chan *request, cfg.QueueDepth),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		flight:  make(chan struct{}, cfg.MaxInFlight),
	}
	go b.loop()
	return b
}

// Plan returns the compiled plan the batcher serves.
func (b *Batcher) Plan() *runtime.Plan { return b.plan }

// MaxBatch returns the chunk count at which a batch stops growing, after
// Config defaults.
func (b *Batcher) MaxBatch() int { return b.cfg.MaxBatch }

// Submit enqueues one inference and blocks until its result is ready. The
// input's batch dimension must be a non-zero multiple of the plan's
// compiled batch and every other dimension must match the compiled input
// shape (checked here, so malformed requests never occupy queue space).
// The returned tensor is private to the caller unless the flush carried
// more than one request, in which case it aliases the batch result — either
// way it is the caller's to read and never recycled by the batcher.
//
// Errors: a shape mismatch returns an error wrapping ErrInvalidInput; a
// full queue returns ErrOverloaded; submission after Close returns
// ErrClosed; an execution failure returns RunBatch's error (every request
// of the failed batch gets it).
func (b *Batcher) Submit(input *tensor.Tensor) (*tensor.Tensor, error) {
	req, err := b.admit(input)
	if err != nil {
		return nil, err
	}
	res := <-req.resp
	if res.err != nil {
		if b.eps != nil {
			b.eps.Errors.Add(1)
		}
		return nil, res.err
	}
	now := time.Now()
	b.eps.RecordRequest(now.Sub(req.admitted).Nanoseconds(), now.UnixNano())
	return res.out, nil
}

// admit validates input and enqueues it, returning the queued request whose
// resp channel will carry the result. On return the request is in the
// queue (or already taken by the gather loop).
func (b *Batcher) admit(input *tensor.Tensor) (*request, error) {
	chunks, err := b.validate(input)
	if err != nil {
		return nil, err
	}
	req := &request{input: input, chunks: chunks, admitted: time.Now(), resp: make(chan result, 1)}

	// The read lock pairs with Close's write lock: any Submit that sees
	// closed == false finishes its enqueue before Close proceeds to stop
	// the loop, so an admitted request is never dropped.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		// eps is nil when the batcher was built with metrics disabled; the
		// counter fields are plain atomics, so guard unlike the nil-safe
		// method calls.
		if b.eps != nil {
			b.eps.RejectedClosed.Add(1)
		}
		return nil, ErrClosed
	}
	select {
	case b.queue <- req:
	default:
		b.mu.RUnlock()
		if b.eps != nil {
			b.eps.RejectedOverload.Add(1)
		}
		return nil, ErrOverloaded
	}
	b.eps.ObserveQueueDepth(len(b.queue))
	b.mu.RUnlock()
	return req, nil
}

// validate checks input against the plan's compiled input shape and
// returns its chunk count. Every failure wraps ErrInvalidInput.
func (b *Batcher) validate(input *tensor.Tensor) (int, error) {
	inShape := b.plan.Graph.In.OutShape
	if input.Shape().Rank() != inShape.Rank() {
		return 0, fmt.Errorf("%w: rank %d != compiled input %v", ErrInvalidInput, input.Shape().Rank(), inShape)
	}
	for d := 1; d < inShape.Rank(); d++ {
		if input.Dim(d) != inShape[d] {
			return 0, fmt.Errorf("%w: shape %v does not match compiled input %v in dim %d",
				ErrInvalidInput, input.Shape(), inShape, d)
		}
	}
	if input.Dim(0)%inShape[0] != 0 {
		return 0, fmt.Errorf("%w: batch %d is not a multiple of the compiled batch %d",
			ErrInvalidInput, input.Dim(0), inShape[0])
	}
	return input.Dim(0) / inShape[0], nil
}

// Close stops admission (subsequent Submits fail with ErrClosed), drains
// every already-admitted request through normal flushes, waits for their
// results to be delivered, and returns. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.drained
		b.flushes.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
	<-b.drained
	b.flushes.Wait()
}

// loop is the batcher goroutine: gather a batch, flush it, repeat; on
// shutdown drain the queue through the same flush path.
func (b *Batcher) loop() {
	defer close(b.drained)
	for {
		var first *request
		select {
		case first = <-b.queue:
		case <-b.done:
			b.drain()
			return
		}
		b.gatherAndFlush(first)
	}
}

// drain flushes everything left in the queue after shutdown began. Close
// holds the write lock before closing done, so no Submit can enqueue once
// the queue reads empty here.
func (b *Batcher) drain() {
	for {
		select {
		case first := <-b.queue:
			b.gatherAndFlush(first)
		default:
			return
		}
	}
}

// gatherAndFlush coalesces requests behind first and launches the batch the
// moment a flight slot is free. It never waits on a clock: the in-flight
// cap is the only load signal.
//
//  1. What the burst already queued rides along at no wait.
//  2. Then the batch grows only while every flight slot is busy: whichever
//     comes first, a free slot (flush now) or another request (append).
//  3. Once the batch reaches MaxBatch it waits for a slot alone.
//
// So an idle server flushes a lone request at once, and a busy one builds
// its next batch from what arrives while the running flushes hold every
// slot. Waiting for a slot in 2 and 3 is the backpressure that fills the
// queue and trips ErrOverloaded.
func (b *Batcher) gatherAndFlush(first *request) {
	batch := []*request{first}
	pending := first.chunks
burst:
	for pending < b.cfg.MaxBatch {
		select {
		case r := <-b.queue:
			batch = append(batch, r)
			pending += r.chunks
		default:
			break burst
		}
	}
	for pending < b.cfg.MaxBatch {
		select {
		case b.flight <- struct{}{}:
			b.launch(batch, pending)
			return
		case r := <-b.queue:
			batch = append(batch, r)
			pending += r.chunks
		}
	}
	b.flight <- struct{}{}
	b.launch(batch, pending)
}

// launch runs one gathered batch on the flight slot its caller acquired;
// the flush goroutine gives the slot back when the batch is delivered.
func (b *Batcher) launch(batch []*request, chunks int) {
	b.flushes.Add(1)
	go func() {
		defer func() {
			<-b.flight
			b.flushes.Done()
		}()
		b.flush(batch, chunks)
	}()
}

// flush records each request's queue wait, joins the batch's inputs, runs
// them as one RunBatch call, and scatters the output back to each request.
//
// It first yields the processor once, holding its flight slot. A flush
// goroutine is the tail of a chain the submitting handler started (handler,
// gather loop, flush, RunBatch workers), and Go runs such a chain back to
// back on one time slice. Under CPU saturation it would otherwise run ahead
// of every HTTP handler already runnable: the flight slots free up before
// those requests are admitted, so they wait in the scheduler, unbatched and
// unordered, instead of in the queue the next flush drains. With nothing
// else runnable the yield returns at once.
func (b *Batcher) flush(batch []*request, chunks int) {
	goruntime.Gosched()
	if b.eps != nil {
		start := time.Now()
		for _, r := range batch {
			b.eps.RecordQueueWait(start.Sub(r.admitted).Nanoseconds())
		}
	}
	if b.flushHook != nil {
		b.flushHook()
	}
	b.eps.RecordFlush(chunks)

	input := batch[0].input
	if len(batch) > 1 {
		inShape := b.plan.Graph.In.OutShape.Clone()
		inShape[0] *= chunks
		joined := tensor.New(inShape...)
		jd := joined.Data()
		off := 0
		for _, r := range batch {
			off += copy(jd[off:], r.input.Data())
		}
		input = joined
	}

	out, err := b.plan.RunBatch(input, b.cfg.Workers)
	if err != nil {
		for _, r := range batch {
			r.resp <- result{err: err}
		}
		return
	}
	if len(batch) == 1 {
		batch[0].resp <- result{out: out}
		return
	}
	outShape := b.plan.Graph.Out.OutShape
	perChunk := out.NumElements() / chunks
	off := 0
	for _, r := range batch {
		shape := outShape.Clone()
		shape[0] *= r.chunks
		n := r.chunks * perChunk
		r.resp <- result{out: tensor.From(out.Data()[off:off+n], shape...)}
		off += n
	}
}

// Package serve is the serving front the kvd and httpd network servers
// share: the accept loop, the lifecycle machine and its drain order,
// the batched submission queues with their deterministic overload retry
// hint, and the elastic controller that resizes the backend's worker
// domains from queue backlog. Each server embeds a *Front and keeps
// only its protocol: how a connection's bytes become requests and how
// answers go back on the wire (DESIGN.md §9).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/submit"
)

// RetryCyclesPerSlot is the virtual-cycle cost estimate behind the
// fronts' retry hints: one queue slot ≈ one request's service time (the
// servers' 100µs inter-arrival at the default clock). A hint is a slot
// count × this, quantized — pure configuration, so rejection bytes are
// identical across runs and hosts.
const RetryCyclesPerSlot = 300_000

// shrinkIdleEvals is the number of consecutive low-backlog batch
// evaluations before the elastic controller shrinks.
const shrinkIdleEvals = 16

// Backend is what a front serves: the server or pool behind a
// NetServer, seen through the operations the front's lifecycle,
// elastic controller and accept loop need.
type Backend struct {
	// Workers is the backend's shard (kvstore) or worker (httpd) count:
	// a batched front has one submission queue per worker.
	Workers int
	// MaxDomains bounds the per-worker domain count EnableElastic
	// accepts.
	MaxDomains int
	// Conn serves one accepted connection; the front closes the
	// connection once Conn returns.
	Conn func(id int, rw io.ReadWriter)
	// Resize sets every worker's domain count and Domains reports it. A
	// nil Resize makes the backend fixed-size.
	Resize  func(n int) error
	Domains func() int
	// Drain and Close, when set, release the backend: each runs last in
	// the front's transition of the same name.
	Drain, Close func() error
}

// Front is the protocol-independent half of a network server. Its
// exported methods are the server's lifecycle and configuration
// surface; a NetServer embeds it and adds the connection loop.
type Front struct {
	lc *lifecycle.Machine
	// pkg prefixes the front's errors: the package part of the machine
	// name.
	pkg string
	log *log.Logger
	b   Backend

	// queues is the async submission layer (batched fronts only).
	queues *submit.Queues

	// gw, when set, fronts every request with tenant admission.
	gw *gateway.Gateway
	// reqTimeout, when non-zero, caps each request with a context
	// deadline (mapped to a virtual-cycle budget by the backend).
	reqTimeout time.Duration

	elasticMu sync.Mutex
	elastic   *elastic

	nextID atomic.Int64
	wg     sync.WaitGroup
}

// New returns a serial front for b whose lifecycle machine is named
// name (e.g. "kvstore.NetServer"). The front is Initializing: Init and
// Start must run before it may Drain, Stop, or resize (Serve itself
// does not consult the machine); Serving advances it for eager
// constructors. logger may be nil to disable logging.
func New(name string, logger *log.Logger, b Backend) *Front {
	pkg, _, _ := strings.Cut(name, ".")
	return &Front{lc: lifecycle.NewMachine(name), pkg: pkg, log: logger, b: b}
}

// NewBatched is New with bounded submission queues, one per backend
// worker, each drained by exec in batches of at most maxBatch tasks.
// maxInflight bounds admitted-but-unanswered requests across the
// queues (<= 0 means 1024), split evenly, at least one per queue. exec
// must resolve every task; the front runs one elastic evaluation after
// each executed batch.
func NewBatched(name string, logger *log.Logger, b Backend, maxInflight, maxBatch int, exec func(worker int, tasks []*submit.Task)) (*Front, error) {
	if maxInflight <= 0 {
		maxInflight = 1024
	}
	f := New(name, logger, b)
	// The drain loops only reach f.queues after a task travels through a
	// queue, which happens-after the assignment below.
	q, err := submit.New(submit.Config{
		Workers:  b.Workers,
		Depth:    max(maxInflight/b.Workers, 1),
		MaxBatch: maxBatch,
		Exec: func(w int, tasks []*submit.Task) {
			exec(w, tasks)
			// Elastic evaluation is event-driven (per executed batch): no
			// wall-clock timers on the simulated-machine side.
			f.maybeScale()
		},
	})
	if err != nil {
		return nil, err
	}
	f.queues = q
	return f, nil
}

// Serving advances a freshly built front to Healthy and returns it —
// the eager-constructor pattern (the backend was allocated inline, so
// the server serves immediately).
func Serving(f *Front) *Front {
	_ = f.lc.Init(nil)  //lint:errclass fresh machine; Init from StateInitializing cannot fail
	_ = f.lc.Start(nil) //lint:errclass inited machine; Start cannot fail
	return f
}

// Interface compliance: the front implements the shared lifecycle
// contract for the server that embeds it.
var _ lifecycle.Component = (*Front)(nil)

// SetGateway installs the tenant admission front tier; the embedding
// server decides what it guards. Call before Serve.
func (f *Front) SetGateway(gw *gateway.Gateway) { f.gw = gw }

// Gateway returns the installed tenant admission tier (nil when none).
func (f *Front) Gateway() *gateway.Gateway { return f.gw }

// SetRequestTimeout installs a per-request deadline (0 disables it, the
// default). Call before Serve.
func (f *Front) SetRequestTimeout(d time.Duration) { f.reqTimeout = d }

// RequestContext returns the context one request runs under and its
// cancel function: a deadline of the request timeout when one is set,
// otherwise the background context and a no-op cancel.
func (f *Front) RequestContext() (context.Context, context.CancelFunc) {
	if f.reqTimeout > 0 {
		return context.WithTimeout(context.Background(), f.reqTimeout)
	}
	return context.Background(), func() {}
}

// Queues returns the submission queues (nil on a serial front).
func (f *Front) Queues() *submit.Queues { return f.queues }

// Workers returns the backend's worker (shard) count.
func (f *Front) Workers() int { return f.b.Workers }

// Submit enqueues payload on worker w's queue without blocking. An
// overload comes back as a *gateway.RetryHintError around the
// *submit.OverloadError: its retry hint derives from the configured
// queue depth, because the bare error's occupancy detail depends on
// host timing and must not reach the wire. A closed front returns
// submit.ErrClosed, and an admitted request whose queues close before
// it executes resolves its future with it.
func (f *Front) Submit(w int, ctx context.Context, payload any) (*submit.Future, error) {
	fut, err := f.queues.Submit(w, ctx, payload)
	if _, over := submit.IsOverload(err); over {
		return nil, &gateway.RetryHintError{
			Cycles: gateway.QuantizeRetryCycles(uint64(f.queues.Depth()) * RetryCyclesPerSlot),
			Cause:  err,
		}
	}
	return fut, err
}

// Logf logs through the front's logger; without one it discards.
func (f *Front) Logf(format string, args ...any) {
	if f.log != nil {
		f.log.Printf(format, args...)
	}
}

// Serve accepts connections on ln until it is closed, serving each on
// its own goroutine, then waits for in-flight connections to finish.
func (f *Front) Serve(ln net.Listener) error {
	defer f.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", f.pkg, err)
		}
		id := int(f.nextID.Add(1))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				if cerr := conn.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					f.Logf("conn %d close: %v", id, cerr)
				}
			}()
			f.b.Conn(id, conn)
		}()
	}
}

// Init advances the lifecycle machine past resource allocation (the
// backend was allocated at construction). Only deferred servers need
// it; the eager constructors have already advanced the machine.
func (f *Front) Init() error { return f.lc.Init(nil) }

// Start moves the server to StateHealthy (see Init).
func (f *Front) Start() error { return f.lc.Start(nil) }

// State returns the server's lifecycle state.
func (f *Front) State() lifecycle.State { return f.lc.State() }

// Drain shuts the server down gracefully, in the order that makes
// "every ack durable, nothing after" true: (1) stop admission — the
// gateway rejects new arrivals with *DrainingError; (2) flush the
// submission queues — every admitted request executes (and, on a
// durable backend, its batch group-commits) before its answer is
// written; (3) close the queues — stragglers get typed ErrClosed; (4)
// drain the backend, when it holds state to drain. Idempotent: later
// calls return the first outcome.
func (f *Front) Drain() error {
	return f.lc.Drain(func() error {
		if f.gw != nil {
			f.gw.StartDrain()
		}
		f.closeQueues()
		if f.b.Drain != nil {
			return f.b.Drain()
		}
		return nil
	})
}

// Draining reports whether Drain has been called (and Stop has not yet
// superseded it).
func (f *Front) Draining() bool {
	return f.lc.State() == lifecycle.StateDraining
}

// Close stops the batched submission layer (queued requests are
// answered, drain loops exit) and releases the backend, propagating
// its error. Idempotent: later calls return the first outcome. Serve
// must have returned (or never been called).
func (f *Front) Close() error { return f.lc.Close(f.closeImpl) }

// Stop is the strict lifecycle form of Close: same teardown, but a
// second Stop returns a typed *LifecycleError instead of the memoized
// outcome. ctx is accepted for interface symmetry; teardown is bounded
// by the queue flush and the backend, not the context.
func (f *Front) Stop(ctx context.Context) error {
	_ = ctx
	return f.lc.Stop(f.closeImpl)
}

// closeImpl is the teardown the lifecycle machine memoizes.
func (f *Front) closeImpl() error {
	f.closeQueues()
	if f.b.Close != nil {
		return f.b.Close()
	}
	return nil
}

// closeQueues answers every admitted request, then closes the queues.
func (f *Front) closeQueues() {
	if f.queues != nil {
		f.queues.Flush()
		f.queues.Close()
	}
}

// ResizeWorkers sets every backend worker's domain count to k. Legal
// while Healthy or Degraded.
func (f *Front) ResizeWorkers(k int) error {
	if err := f.lc.Resizable(); err != nil {
		return err
	}
	if f.b.Resize == nil {
		return fmt.Errorf("%s: resize workers: server has no resizable backend", f.pkg)
	}
	return f.b.Resize(k)
}

// elastic is the worker-domain autoscaler state. The controller is
// deliberately wall-clock-free: it evaluates once per executed batch
// (an event the virtual-time side already generates) and scales from
// submission-queue backlog.
type elastic struct {
	min, max int
	// idle counts consecutive low-backlog evaluations; shrinkIdleEvals
	// of them halve the domain set.
	idle    int
	grown   uint64
	shrunk  uint64
	maxSeen int
}

// EnableElastic turns on worker-domain autoscaling between min and max
// domains per worker: the set doubles when the queued backlog reaches
// two requests per live domain and halves after a sustained idle
// stretch. Requires a batched front over a resizable backend; call
// before Serve. The server starts at min domains.
func (f *Front) EnableElastic(min, max int) error {
	if err := f.lc.Resizable(); err != nil {
		return err
	}
	if f.queues == nil || f.b.Resize == nil {
		return fmt.Errorf("%s: elastic mode needs a batched pool server", f.pkg)
	}
	if min < 1 || max < min || max > f.b.MaxDomains {
		return fmt.Errorf("%s: elastic bounds [%d, %d] out of range [1, %d]", f.pkg, min, max, f.b.MaxDomains)
	}
	if err := f.b.Resize(min); err != nil {
		return err
	}
	f.elasticMu.Lock()
	defer f.elasticMu.Unlock()
	f.elastic = &elastic{min: min, max: max, maxSeen: min}
	return nil
}

// ElasticStats reports the autoscaler's activity.
type ElasticStats struct {
	// Grown and Shrunk count resize operations in each direction.
	Grown, Shrunk uint64
	// MaxWorkers is the highest per-worker domain count reached; Workers
	// is the current one.
	MaxWorkers, Workers int
}

// ElasticStats returns the autoscaler's counters (zero value when
// elastic mode is off).
func (f *Front) ElasticStats() ElasticStats {
	f.elasticMu.Lock()
	defer f.elasticMu.Unlock()
	if f.elastic == nil {
		return ElasticStats{}
	}
	return ElasticStats{
		Grown:      f.elastic.grown,
		Shrunk:     f.elastic.shrunk,
		MaxWorkers: f.elastic.maxSeen,
		Workers:    f.b.Domains(),
	}
}

// maybeScale runs one elastic evaluation: grow (double, capped) when
// the queued backlog reaches two requests per live domain per worker,
// shrink (halve, floored) after shrinkIdleEvals consecutive evaluations
// with at most one queued request per live domain.
func (f *Front) maybeScale() {
	f.elasticMu.Lock()
	defer f.elasticMu.Unlock()
	e := f.elastic
	if e == nil {
		return
	}
	perWorker := f.queues.TotalLoad() / int64(f.b.Workers)
	cur := f.b.Domains()
	switch {
	case perWorker >= int64(2*cur) && cur < e.max:
		next := min(cur*2, e.max)
		if err := f.b.Resize(next); err == nil {
			e.grown++
			e.idle = 0
			e.maxSeen = max(e.maxSeen, next)
		}
	case perWorker <= int64(cur):
		e.idle++
		if e.idle >= shrinkIdleEvals && cur > e.min {
			if err := f.b.Resize(max(cur/2, e.min)); err == nil {
				e.shrunk++
			}
			e.idle = 0
		}
	default:
		e.idle = 0
	}
}

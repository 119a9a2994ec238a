package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/submit"
	"repro/internal/workload"
)

// AttackMarker makes a SET over the wire malicious: values with this
// prefix stand in for crafted exploit payloads against the parser.
const AttackMarker = "!!exploit"

// overloadRetryCyclesPerSlot is the virtual-cycle cost estimate behind
// the batched path's overload retry hint: one queue slot ≈ one request's
// service time (the servers' 100µs inter-arrival at the default clock).
// The hint is depth × this, quantized — pure configuration, so the
// rejection bytes are identical across runs and hosts.
const overloadRetryCyclesPerSlot = 300_000

// NetServer serves the memcached text protocol over TCP on top of a
// Server or a Pool, with connections multiplexing on real sockets.
type NetServer struct {
	// start begins one request. Serial fronts execute it on the spot and
	// fill a.resp; batched fronts submit it to its shard's queue and
	// return the future the drain loop resolves once a.resp is filled
	// (nil when the submission was refused and a.resp carries why).
	start func(ctx context.Context, a *asyncReq) *submit.Future
	stats func(w io.Writer) error
	// scanFn serves one paginated scan page (nil disables the scan
	// command). Scans bypass the submission queues even on batched
	// servers: a page is a trusted-side metadata walk, not domain work.
	scanFn func(prefix, cursor string, limit int) (ScanResult, error)
	log    *log.Logger

	// reqTimeout, when non-zero, caps each request with a context
	// deadline (mapped to a virtual-cycle budget by the server).
	reqTimeout time.Duration

	// queues is the async submission layer (batched servers only).
	queues *submit.Queues

	// gw, when set, fronts every data command with tenant admission
	// (auth command, rate limits, quotas, quarantine, drain).
	gw *gateway.Gateway

	// workers, healthFn, drainFn, closeFn, resizeFn, workersFn abstract
	// over the Server/Pool split for the lifecycle surface.
	workers   int
	healthFn  func() []gateway.ShardHealth
	drainFn   func() error
	closeFn   func() error
	resizeFn  func(int) error
	workersFn func() int

	// lc is the shared lifecycle state machine: it memoizes Drain and
	// Close and rejects illegal transitions with a typed
	// *LifecycleError. The eager constructors return it pre-advanced to
	// Healthy; the deferred constructor leaves it Initializing.
	lc *lifecycle.Machine

	// elastic, when enabled, autoscales the parser worker domains from
	// submission-queue backlog (batched pool servers only).
	elasticMu sync.Mutex
	elastic   *netElastic

	connMu sync.Mutex
	nextID int

	wg sync.WaitGroup
}

// NewNetServer wraps srv for TCP serving. logger may be nil to disable
// logging. The single Server owns one simulated core, so request
// handling is serialized behind a mutex.
func NewNetServer(srv *Server, logger *log.Logger) *NetServer {
	var mu sync.Mutex
	return servingNet(&NetServer{
		log: logger,
		start: func(ctx context.Context, a *asyncReq) *submit.Future {
			mu.Lock()
			defer mu.Unlock()
			a.resp = srv.HandleContext(ctx, a.clientID, a.req)
			return nil
		},
		stats: func(w io.Writer) error {
			mu.Lock()
			defer mu.Unlock()
			return WriteStats(w, srv)
		},
		scanFn: func(prefix, cursor string, limit int) (ScanResult, error) {
			mu.Lock()
			defer mu.Unlock()
			return srv.Scan(prefix, cursor, limit)
		},
		workers: 1,
		healthFn: func() []gateway.ShardHealth {
			mu.Lock()
			defer mu.Unlock()
			return serverHealth(srv)
		},
		drainFn: func() error {
			mu.Lock()
			defer mu.Unlock()
			return srv.Drain()
		},
		closeFn: func() error {
			mu.Lock()
			defer mu.Unlock()
			return srv.Close()
		},
		resizeFn: func(k int) error {
			mu.Lock()
			defer mu.Unlock()
			return srv.ResizeWorkers(k)
		},
		workersFn: func() int {
			mu.Lock()
			defer mu.Unlock()
			return srv.Workers()
		},
	})
}

// servingNet advances a freshly built NetServer's lifecycle machine to
// Healthy — the eager-constructor pattern (resources were allocated
// inline, the server serves immediately).
func servingNet(n *NetServer) *NetServer {
	n.lc = lifecycle.NewMachine("kvstore.NetServer")
	_ = n.lc.Init(nil)  //lint:errclass fresh machine; Init from StateInitializing cannot fail
	_ = n.lc.Start(nil) //lint:errclass inited machine; Start cannot fail
	return n
}

// serverHealth is the single-server shard-health row.
func serverHealth(srv *Server) []gateway.ShardHealth {
	h := gateway.ShardHealth{Shard: 0, State: gateway.ShardOK}
	switch {
	case srv.PersistErr() != nil:
		h.State = gateway.ShardFailStop
		h.Detail = srv.PersistErr().Error()
	case srv.Drained():
		h.State = gateway.ShardDrained
	case srv.SnapshotErr() != nil:
		h.State = gateway.ShardDegraded
		h.Detail = srv.SnapshotErr().Error()
	}
	return []gateway.ShardHealth{h}
}

// NewNetServerPool wraps a Pool for TCP serving; logger may be nil. The
// pool synchronizes internally per shard, so requests for keys on
// different shards execute in parallel.
func NewNetServerPool(p *Pool, logger *log.Logger) *NetServer {
	return servingNet(NewDeferredNetServerPool(p, logger))
}

// NewDeferredNetServerPool is NewNetServerPool without the lifecycle
// advancement: the returned server is Initializing, and Init + Start
// must run before it may Drain, Stop, or resize (Serve itself does not
// consult the machine — legacy constructors advance it for you).
func NewDeferredNetServerPool(p *Pool, logger *log.Logger) *NetServer {
	return &NetServer{
		log: logger,
		start: func(ctx context.Context, a *asyncReq) *submit.Future {
			a.resp = p.HandleContext(ctx, a.clientID, a.req)
			return nil
		},
		stats:     func(w io.Writer) error { return WriteStats(w, p) },
		scanFn:    p.Scan,
		workers:   p.Workers(),
		healthFn:  p.Health,
		drainFn:   p.Drain,
		closeFn:   p.Close,
		resizeFn:  p.ResizeWorkers,
		workersFn: p.ShardWorkers,
		lc:        lifecycle.NewMachine("kvstore.NetServer"),
	}
}

// asyncReq is one connection request between its start and its reply;
// on the batched path the drain loop fills resp before resolving the
// future.
type asyncReq struct {
	clientID int
	req      workload.Request
	resp     Response
}

// NewBatchedNetServerPool wraps a Pool for TCP serving through the
// asynchronous submission layer: instead of every connection contending
// on the shard locks, connections enqueue into bounded per-shard
// queues (internal/submit) and one drain loop per shard coalesces up
// to maxBatch queued requests into a single pipelined
// Server.HandleBatch — one domain Enter per worker group instead of per
// request. maxInflight bounds admitted-but-unanswered requests across
// the pool (<= 0 means 1024); at capacity new requests are answered
// SERVER_ERROR immediately with a deterministic cycles-quantized retry
// hint (admission control / backpressure). Call Close after Serve
// returns to stop the drain loops.
func NewBatchedNetServerPool(p *Pool, logger *log.Logger, maxInflight, maxBatch int) (*NetServer, error) {
	if maxInflight <= 0 {
		maxInflight = 1024
	}
	depth := maxInflight / p.Workers()
	if depth < 1 {
		depth = 1
	}
	// n is assigned below; the drain loops only observe it after a task
	// travels through a queue, which happens-after the constructor
	// returns.
	var n *NetServer
	q, err := submit.New(submit.Config{
		Workers:  p.Workers(),
		Depth:    depth,
		MaxBatch: maxBatch,
		Exec: func(si int, tasks []*submit.Task) {
			batch := make([]BatchRequest, len(tasks))
			for i, t := range tasks {
				a := t.Payload.(*asyncReq)
				batch[i] = BatchRequest{Ctx: t.Ctx, ClientID: a.clientID, Req: a.req}
			}
			resps := p.handleBatch(si, batch)
			for i, t := range tasks {
				t.Payload.(*asyncReq).resp = resps[i]
				t.Resolve(nil)
			}
			// Elastic evaluation is event-driven (per executed batch):
			// no wall-clock timers on the simulated-machine side.
			n.maybeScale()
		},
	})
	if err != nil {
		return nil, err
	}
	n = servingNet(&NetServer{
		log:       logger,
		stats:     func(w io.Writer) error { return WriteStats(w, p) },
		scanFn:    p.Scan,
		queues:    q,
		workers:   p.Workers(),
		healthFn:  p.Health,
		drainFn:   p.Drain,
		closeFn:   p.Close,
		resizeFn:  p.ResizeWorkers,
		workersFn: p.ShardWorkers,
	})
	n.start = func(ctx context.Context, a *asyncReq) *submit.Future {
		fut, err := q.Submit(p.shardIndex(a.req.Key), ctx, a)
		if err != nil {
			// Overload (queue full) or closed: shed the request. An
			// overload is decorated with a deterministic retry hint derived
			// from the configured queue depth — the bare OverloadError's
			// occupancy detail is timing-dependent and must not reach the
			// wire (campaign traces pin the rejection bytes).
			if _, over := submit.IsOverload(err); over {
				err = &gateway.RetryHintError{
					Cycles: gateway.QuantizeRetryCycles(uint64(q.Depth()) * overloadRetryCyclesPerSlot),
					Cause:  err,
				}
			}
			a.resp = Response{Err: err}
			return nil
		}
		// The future resolves when the drain loop answered; the request's
		// ctx still governs its in-domain budget (deadlines that expire
		// while queued surface as preemptions, as on the serial path).
		return fut
	}
	return n, nil
}

// respondAsync maps an admitted request's future onto its wire
// response, waiting for resolution. A non-nil resolution means the
// drain loop never filled resp (the queues closed underneath the
// admitted request), so the typed error must reach the wire instead of
// a zero-value Response.
func respondAsync(a *asyncReq, fut *submit.Future) Response {
	if ferr := fut.Err(); ferr != nil {
		return Response{Err: ferr}
	}
	return a.resp
}

// SetGateway installs the tenant admission front tier: data commands
// then require a successful auth command on the connection and pass
// per-tenant admission before executing. Call before Serve.
func (n *NetServer) SetGateway(gw *gateway.Gateway) { n.gw = gw }

// Close stops the batched submission layer (queued requests are
// answered, drain loops exit) and releases the underlying server or
// pool, propagating its error. Idempotent: later calls return the first
// outcome. Serve must have returned (or never been called).
func (n *NetServer) Close() error { return n.lc.Close(n.closeImpl) }

// Stop is the strict lifecycle form of Close: same teardown, but a
// second Stop returns a typed *LifecycleError instead of the memoized
// outcome. ctx is accepted for interface symmetry; teardown is bounded
// by the queue flush and store backends, not the context.
func (n *NetServer) Stop(ctx context.Context) error {
	_ = ctx
	return n.lc.Stop(n.closeImpl)
}

// closeImpl is the teardown the lifecycle machine memoizes.
func (n *NetServer) closeImpl() error {
	if n.queues != nil {
		n.queues.Flush()
		n.queues.Close()
	}
	if n.closeFn != nil {
		return n.closeFn()
	}
	return nil
}

// Init advances the lifecycle machine past resource allocation (the
// wrapped server or pool was allocated at construction). Only servers
// from NewDeferredNetServerPool need it; the eager constructors have
// already advanced the machine.
func (n *NetServer) Init() error { return n.lc.Init(nil) }

// Start moves the server to StateHealthy (see Init).
func (n *NetServer) Start() error { return n.lc.Start(nil) }

// State returns the server's lifecycle state.
func (n *NetServer) State() lifecycle.State { return n.lc.State() }

// Drain shuts the server down gracefully, in the order that makes
// "every ack durable, nothing after" true: (1) stop admission — the
// gateway rejects new arrivals with *DrainingError; (2) flush the
// submission queues — every admitted request executes and its batch
// group-commits to the WAL before its ack is written; (3) close the
// queues — stragglers get typed ErrClosed; (4) drain the shards — final
// WAL commit, snapshot, store release, and the ErrDrained gate for any
// request that still reaches a shard. Idempotent: later calls return
// the first outcome.
func (n *NetServer) Drain() error {
	return n.lc.Drain(func() error {
		if n.gw != nil {
			n.gw.StartDrain()
		}
		if n.queues != nil {
			n.queues.Flush()
			n.queues.Close()
		}
		if n.drainFn != nil {
			return n.drainFn()
		}
		return nil
	})
}

// Draining reports whether Drain has been called (and Stop has not yet
// superseded it).
func (n *NetServer) Draining() bool {
	return n.lc.State() == lifecycle.StateDraining
}

// ResizeWorkers grows or shrinks the parser worker-domain set of the
// wrapped server (or of every shard of the wrapped pool) to k. Legal
// while Healthy or Degraded.
func (n *NetServer) ResizeWorkers(k int) error {
	if err := n.lc.Resizable(); err != nil {
		return err
	}
	if n.resizeFn == nil {
		return fmt.Errorf("kvstore: resize workers: server has no resizable backend")
	}
	return n.resizeFn(k)
}

// netElastic is the parser-worker autoscaler state. The controller is
// deliberately wall-clock-free: it evaluates once per executed batch
// (an event the virtual-time side already generates) and scales from
// submission-queue backlog.
type netElastic struct {
	min, max int
	// idle counts consecutive low-backlog evaluations; netShrinkIdleEvals
	// of them halve the worker set.
	idle    int
	grown   uint64
	shrunk  uint64
	maxSeen int
}

// netShrinkIdleEvals is the number of consecutive low-backlog batch
// evaluations before the elastic controller shrinks.
const netShrinkIdleEvals = 16

// EnableElastic turns on parser-worker autoscaling between min and max
// workers per shard: the worker set doubles when the queued backlog
// reaches two batches per live worker and halves after a sustained idle
// stretch. Requires a batched pool server; call before Serve. The
// server starts at min workers.
func (n *NetServer) EnableElastic(min, max int) error {
	if err := n.lc.Resizable(); err != nil {
		return err
	}
	if n.queues == nil || n.resizeFn == nil {
		return fmt.Errorf("kvstore: elastic mode needs a batched pool server")
	}
	if min < 1 || max < min || max > MaxResizeWorkers {
		return fmt.Errorf("kvstore: elastic bounds [%d, %d] out of range [1, %d]", min, max, MaxResizeWorkers)
	}
	if err := n.resizeFn(min); err != nil {
		return err
	}
	n.elasticMu.Lock()
	defer n.elasticMu.Unlock()
	n.elastic = &netElastic{min: min, max: max, maxSeen: min}
	return nil
}

// NetElasticStats reports the autoscaler's activity.
type NetElasticStats struct {
	// Grown and Shrunk count resize operations in each direction.
	Grown, Shrunk uint64
	// MaxWorkers is the highest per-shard worker count reached; Workers
	// is the current one.
	MaxWorkers, Workers int
}

// ElasticStats returns the autoscaler's counters (zero value when
// elastic mode is off).
func (n *NetServer) ElasticStats() NetElasticStats {
	n.elasticMu.Lock()
	defer n.elasticMu.Unlock()
	if n.elastic == nil {
		return NetElasticStats{}
	}
	return NetElasticStats{
		Grown:      n.elastic.grown,
		Shrunk:     n.elastic.shrunk,
		MaxWorkers: n.elastic.maxSeen,
		Workers:    n.workersFn(),
	}
}

// maybeScale runs one elastic evaluation: grow (double, capped) when
// the queued backlog reaches two requests per live worker per shard,
// shrink (halve, floored) after netShrinkIdleEvals consecutive
// evaluations with at most one queued request per live worker.
func (n *NetServer) maybeScale() {
	n.elasticMu.Lock()
	defer n.elasticMu.Unlock()
	e := n.elastic
	if e == nil {
		return
	}
	perShard := n.queues.TotalLoad() / int64(n.workers)
	cur := n.workersFn()
	switch {
	case perShard >= int64(2*cur) && cur < e.max:
		next := cur * 2
		if next > e.max {
			next = e.max
		}
		if err := n.resizeFn(next); err == nil {
			e.grown++
			e.idle = 0
			if next > e.maxSeen {
				e.maxSeen = next
			}
		}
	case perShard <= int64(cur):
		e.idle++
		if e.idle >= netShrinkIdleEvals && cur > e.min {
			next := cur / 2
			if next < e.min {
				next = e.min
			}
			if err := n.resizeFn(next); err == nil {
				e.shrunk++
			}
			e.idle = 0
		}
	default:
		e.idle = 0
	}
}

// Interface compliance: the net server implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*NetServer)(nil)

// SetRequestTimeout installs a per-request deadline (0 disables it, the
// default). Call before Serve.
func (n *NetServer) SetRequestTimeout(d time.Duration) { n.reqTimeout = d }

func (n *NetServer) logf(format string, args ...any) {
	if n.log != nil {
		n.log.Printf(format, args...)
	}
}

// Serve accepts connections on ln until it is closed, then waits for
// in-flight connections to finish.
func (n *NetServer) Serve(ln net.Listener) error {
	defer n.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("kvstore: accept: %w", err)
		}
		n.connMu.Lock()
		n.nextID++
		id := n.nextID
		n.connMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				if cerr := conn.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					n.logf("conn %d close: %v", id, cerr)
				}
			}()
			n.serveConn(id, conn)
		}()
	}
}

// connBufSize is a connection's read buffer: it holds a 16-request
// burst of 1 KiB SETs whole, so such a burst becomes one group. It also
// bounds a command line (ReadCommand rejects a longer one).
const connBufSize = 64 << 10

// maxGroup bounds the replies one connection may owe at once, so a
// pipeline of large GETs holds at most this many values in memory.
const maxGroup = 64

// conn is one connection's state.
type conn struct {
	id     int
	r      *bufio.Reader
	w      *bufio.Writer
	tenant string
	authed bool
	// limit bounds the group: at most maxGroup, the queue depth, and the
	// tenant's MaxInflight, so one connection can overload neither its
	// queue nor its quota by itself.
	limit int
	// group holds the data commands admitted and started but not yet
	// answered, in arrival order. Its capacity is maxGroup and it never
	// grows past it: queued requests point into it.
	group []pending
}

// pending is one data command of a group, between its start and its
// reply.
type pending struct {
	a      asyncReq
	fut    *submit.Future
	ticket *gateway.Ticket
	cancel context.CancelFunc
	// unauthed marks a command refused for want of an auth command; it
	// never ran.
	unauthed bool
}

// serveConn runs the command loop for one connection. Data commands are
// served in groups: every data command already whole in the read buffer
// is admitted and started in arrival order without waiting, then the
// group is answered in the same order and flushed once. A group ends
// before a command that is not a data command (it is answered after the
// group), after a malicious request or a quarantine probe (the gateway
// must see its outcome before the next admission, as a client waiting
// for each reply would cause), at the connection's group limit, and at
// the end of the buffered bytes, so no read blocks while replies are
// owed. With a gateway installed the connection carries tenant state:
// data commands require a prior successful auth command and pass
// per-tenant admission.
func (n *NetServer) serveConn(id int, rw io.ReadWriter) {
	c := &conn{
		id:    id,
		r:     bufio.NewReaderSize(rw, connBufSize),
		w:     bufio.NewWriter(rw),
		group: make([]pending, 0, maxGroup),
	}
	c.limit = n.groupLimit(c.tenant)
	for {
		cmd, err := ReadCommand(c.r)
		for err == nil && cmd.data() && n.add(c, cmd.Req) && commandBuffered(c.r) {
			cmd, err = ReadCommand(c.r)
		}
		if serr := n.settle(c); serr != nil {
			n.logf("conn %d write: %v", id, serr)
			return
		}
		var werr error
		switch {
		case err != nil:
			if !errors.Is(err, io.EOF) {
				_, _ = fmt.Fprintf(c.w, "CLIENT_ERROR %v\r\n", err)
			}
			_ = c.w.Flush()
			return
		case cmd.Quit:
			_ = c.w.Flush()
			return
		case cmd.Auth:
			werr = n.handleAuth(c, cmd.Token)
		case cmd.Health:
			werr = n.writeHealth(c.w)
		case cmd.Stats:
			werr = n.stats(c.w)
		case cmd.Scan:
			werr = n.handleScan(c, cmd)
		}
		if werr != nil {
			n.logf("conn %d write: %v", id, werr)
			return
		}
		if err := c.w.Flush(); err != nil {
			n.logf("conn %d flush: %v", id, err)
			return
		}
	}
}

// groupLimit is the group bound for a connection of tenant ("" when not
// authenticated).
func (n *NetServer) groupLimit(tenant string) int {
	limit := maxGroup
	if n.queues != nil {
		limit = min(limit, n.queues.Depth())
	}
	if n.gw != nil && tenant != "" {
		limit = min(limit, n.gw.Limits(tenant).MaxInflight)
	}
	return limit
}

// add admits req through the gateway, when one is installed, starts it,
// and appends it to c's group. It reports whether the group may take
// another command.
func (n *NetServer) add(c *conn, req workload.Request) bool {
	if bytes.HasPrefix(req.Value, []byte(AttackMarker)) {
		req.Malicious = true
	}
	c.group = append(c.group, pending{a: asyncReq{clientID: c.id, req: req}})
	p := &c.group[len(c.group)-1]
	more := !req.Malicious && len(c.group) < c.limit
	if n.gw != nil {
		if !c.authed {
			p.unauthed = true
			return more
		}
		t, aerr := n.gw.Admit(c.tenant)
		if aerr != nil {
			p.a.resp = Response{Err: aerr}
			return more
		}
		p.ticket = t
		more = more && !t.Probe()
	}
	ctx := context.Background()
	if n.reqTimeout > 0 {
		ctx, p.cancel = context.WithTimeout(ctx, n.reqTimeout)
	}
	p.fut = n.start(ctx, &p.a)
	return more
}

// settle answers c's group in arrival order: it waits for each
// response, reports the outcome to the tenant's circuit breaker, and
// writes the reply. Every request is settled even after a write fails,
// so no ticket or deadline leaks; the first write error is returned.
func (n *NetServer) settle(c *conn) error {
	var werr error
	for i := range c.group {
		p := &c.group[i]
		if p.fut != nil {
			p.a.resp = respondAsync(&p.a, p.fut)
		}
		if p.cancel != nil {
			p.cancel()
		}
		resp := p.a.resp
		if p.ticket != nil {
			_, preempted := core.IsBudget(resp.Err)
			p.ticket.Done(resp.Contained, preempted)
		}
		if resp.Contained {
			n.logf("conn %d: tenant %q: contained memory-safety violation (domain rewound)", c.id, c.tenant)
		}
		if werr == nil {
			if p.unauthed {
				_, werr = io.WriteString(c.w, "CLIENT_ERROR auth required\r\n")
			} else {
				werr = WriteResponse(c.w, p.a.req, resp)
			}
		}
		c.group[i] = pending{}
	}
	c.group = c.group[:0]
	return werr
}

// commandBuffered reports whether r's buffer holds a whole command, so
// that reading it cannot block.
func commandBuffered(r *bufio.Reader) bool {
	buf, _ := r.Peek(r.Buffered()) // cannot fail: the bytes are buffered
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return false
	}
	// Only a set line is followed by more bytes: its data block, whose
	// length is the last of five fields. ReadCommand reads the block
	// only when that length is valid.
	line := buf[:i]
	if !bytes.Contains(line, []byte("set")) {
		return true
	}
	f := bytes.Fields(line)
	if len(f) != 5 || string(f[0]) != "set" {
		return true
	}
	size, err := strconv.Atoi(string(f[4]))
	if err != nil || size < 0 || size > MaxValueSize {
		return true
	}
	return len(buf)-i-1 >= size+2
}

// handleAuth binds the connection to a tenant. Every failure mode
// answers the same uniform line — the response never reveals whether
// the token was close to (or part of) a valid credential.
func (n *NetServer) handleAuth(c *conn, token string) error {
	if n.gw == nil {
		_, err := io.WriteString(c.w, "CLIENT_ERROR gateway disabled\r\n")
		return err
	}
	name, aerr := n.gw.Authenticate([]byte(token))
	c.tenant, c.authed = name, aerr == nil
	c.limit = n.groupLimit(c.tenant)
	if aerr != nil {
		n.logf("auth rejected: %v", aerr)
		_, err := io.WriteString(c.w, "CLIENT_ERROR unauthorized\r\n")
		return err
	}
	_, err := io.WriteString(c.w, "OK\r\n")
	return err
}

// handleScan serves one paginated scan page. With a gateway installed,
// every page is charged one admission token against the tenant's quota
// — pagination is the anti-starvation contract: a tenant walking the
// whole table re-enters admission per page and cannot lock others out
// with one giant request.
func (n *NetServer) handleScan(c *conn, cmd Command) error {
	w := c.w
	if n.scanFn == nil {
		_, err := io.WriteString(w, "CLIENT_ERROR scan disabled\r\n")
		return err
	}
	var ticket *gateway.Ticket
	if n.gw != nil {
		if !c.authed {
			_, err := io.WriteString(w, "CLIENT_ERROR auth required\r\n")
			return err
		}
		t, aerr := n.gw.Admit(c.tenant)
		if aerr != nil {
			_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", aerr)
			return err
		}
		ticket = t
	}
	res, serr := n.scanFn(cmd.ScanPrefix, cmd.ScanCursor, cmd.ScanLimit)
	if ticket != nil {
		ticket.Done(false, false)
	}
	if serr != nil {
		_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", serr)
		return err
	}
	return WriteScanResponse(w, res)
}

// writeHealth renders the lifecycle health document as STAT lines: the
// summary state, drain flag, worker count, per-shard states, and (with
// a gateway) per-tenant counters, all in deterministic order.
func (n *NetServer) writeHealth(w io.Writer) error {
	var shards []gateway.ShardHealth
	if n.healthFn != nil {
		shards = n.healthFn()
	}
	var tenants []metrics.TenantSnapshot
	draining := n.Draining()
	if n.gw != nil {
		draining = draining || n.gw.Draining()
		tenants = n.gw.Stats().Snapshot()
	}
	h := gateway.BuildHealth(draining, n.workers, shards, tenants)
	drainInt := 0
	if h.Draining {
		drainInt = 1
	}
	if _, err := fmt.Fprintf(w, "STAT state %s\r\nSTAT draining %d\r\nSTAT workers %d\r\n",
		h.State, drainInt, h.Workers); err != nil {
		return err
	}
	for _, sh := range h.Shards {
		if _, err := fmt.Fprintf(w, "STAT shard_%d %s\r\n", sh.Shard, sh.State); err != nil {
			return err
		}
	}
	for _, t := range h.Tenants {
		if _, err := fmt.Fprintf(w,
			"STAT tenant_%s admitted=%d completed=%d throttled=%d quota=%d quarantine=%d drained=%d detections=%d preemptions=%d quarantines=%d\r\n",
			t.Tenant, t.Admitted, t.Completed, t.Throttled, t.QuotaRejected, t.QuarantineRejected,
			t.Drained, t.Detections, t.Preemptions, t.Quarantines); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

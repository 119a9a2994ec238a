package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/submit"
	"repro/internal/workload"
)

// AttackMarker makes a SET over the wire malicious: values with this
// prefix stand in for crafted exploit payloads against the parser.
const AttackMarker = "!!exploit"

// frontName names the server's lifecycle component.
const frontName = "kvstore.NetServer"

// NetServer serves the memcached text protocol over TCP on top of a
// Server or a Pool, with connections multiplexing on real sockets. The
// embedded front owns the accept loop, lifecycle, drain order, batched
// queues and elastic controller; NetServer adds the protocol.
type NetServer struct {
	*serve.Front

	// start begins one request. Serial fronts execute it on the spot and
	// fill a.resp; batched fronts submit it to its shard's queue and
	// return the future the drain loop resolves once a.resp is filled
	// (nil when the submission was refused and a.resp carries why).
	start func(ctx context.Context, a *asyncReq) *submit.Future
	stats func(w io.Writer) error
	// scanFn serves one paginated scan page (nil disables the scan
	// command). Scans bypass the submission queues even on batched
	// servers: a page is a trusted-side metadata walk, not domain work.
	scanFn   func(prefix, cursor string, limit int) (ScanResult, error)
	healthFn func() []gateway.ShardHealth
}

// NewNetServer wraps srv for TCP serving. logger may be nil to disable
// logging. The single Server owns one simulated core, so request
// handling is serialized behind a mutex.
func NewNetServer(srv *Server, logger *log.Logger) *NetServer {
	var mu sync.Mutex
	locked := func(fn func() error) func() error {
		return func() error {
			mu.Lock()
			defer mu.Unlock()
			return fn()
		}
	}
	n := &NetServer{
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
		healthFn: func() []gateway.ShardHealth {
			mu.Lock()
			defer mu.Unlock()
			return serverHealth(srv)
		},
	}
	n.Front = serve.Serving(serve.New(frontName, logger, serve.Backend{
		Workers:    1,
		MaxDomains: MaxResizeWorkers,
		Conn:       n.serveConn,
		Resize: func(k int) error {
			mu.Lock()
			defer mu.Unlock()
			return srv.ResizeWorkers(k)
		},
		Domains: func() int {
			mu.Lock()
			defer mu.Unlock()
			return srv.Workers()
		},
		Drain: locked(srv.Drain),
		Close: locked(srv.Close),
	}))
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
	n := NewDeferredNetServerPool(p, logger)
	serve.Serving(n.Front)
	return n
}

// NewDeferredNetServerPool is NewNetServerPool without the lifecycle
// advancement: the returned server is Initializing, and Init + Start
// must run before it may Drain, Stop, or resize (Serve itself does not
// consult the machine — legacy constructors advance it for you).
func NewDeferredNetServerPool(p *Pool, logger *log.Logger) *NetServer {
	n, b := poolNet(p)
	n.start = func(ctx context.Context, a *asyncReq) *submit.Future {
		a.resp = p.HandleContext(ctx, a.clientID, a.req)
		return nil
	}
	n.Front = serve.New(frontName, logger, b)
	return n
}

// poolNet returns a NetServer over p, without its front or start, and
// the backend its front serves.
func poolNet(p *Pool) (*NetServer, serve.Backend) {
	n := &NetServer{
		stats:    func(w io.Writer) error { return WriteStats(w, p) },
		scanFn:   p.Scan,
		healthFn: p.Health,
	}
	return n, serve.Backend{
		Workers:    p.Workers(),
		MaxDomains: MaxResizeWorkers,
		Conn:       n.serveConn,
		Resize:     p.ResizeWorkers,
		Domains:    p.ShardWorkers,
		Drain:      p.Drain,
		Close:      p.Close,
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
	n, b := poolNet(p)
	f, err := serve.NewBatched(frontName, logger, b, maxInflight, maxBatch, func(si int, tasks []*submit.Task) {
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
	})
	if err != nil {
		return nil, err
	}
	n.Front = serve.Serving(f)
	n.start = func(ctx context.Context, a *asyncReq) *submit.Future {
		fut, err := n.Submit(p.shardIndex(a.req.Key), ctx, a)
		if err != nil {
			// Overload (queue full, with the front's retry hint) or
			// closed: shed the request.
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
			n.Logf("conn %d write: %v", id, serr)
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
			n.Logf("conn %d write: %v", id, werr)
			return
		}
		if err := c.w.Flush(); err != nil {
			n.Logf("conn %d flush: %v", id, err)
			return
		}
	}
}

// groupLimit is the group bound for a connection of tenant ("" when not
// authenticated).
func (n *NetServer) groupLimit(tenant string) int {
	limit := maxGroup
	if q := n.Queues(); q != nil {
		limit = min(limit, q.Depth())
	}
	if gw := n.Gateway(); gw != nil && tenant != "" {
		limit = min(limit, gw.Limits(tenant).MaxInflight)
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
	if gw := n.Gateway(); gw != nil {
		if !c.authed {
			p.unauthed = true
			return more
		}
		t, aerr := gw.Admit(c.tenant)
		if aerr != nil {
			p.a.resp = Response{Err: aerr}
			return more
		}
		p.ticket = t
		more = more && !t.Probe()
	}
	var ctx context.Context
	ctx, p.cancel = n.RequestContext()
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
			n.Logf("conn %d: tenant %q: contained memory-safety violation (domain rewound)", c.id, c.tenant)
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
	gw := n.Gateway()
	if gw == nil {
		_, err := io.WriteString(c.w, "CLIENT_ERROR gateway disabled\r\n")
		return err
	}
	name, aerr := gw.Authenticate([]byte(token))
	c.tenant, c.authed = name, aerr == nil
	c.limit = n.groupLimit(c.tenant)
	if aerr != nil {
		n.Logf("auth rejected: %v", aerr)
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
	if gw := n.Gateway(); gw != nil {
		if !c.authed {
			_, err := io.WriteString(w, "CLIENT_ERROR auth required\r\n")
			return err
		}
		t, aerr := gw.Admit(c.tenant)
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
	var tenants []metrics.TenantSnapshot
	draining := n.Draining()
	if gw := n.Gateway(); gw != nil {
		draining = draining || gw.Draining()
		tenants = gw.Stats().Snapshot()
	}
	h := gateway.BuildHealth(draining, n.Workers(), n.healthFn(), tenants)
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

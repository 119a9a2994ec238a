package httpd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/submit"
)

// frontName names the server's lifecycle component.
const frontName = "httpd.NetServer"

// NetServer serves HTTP/1.1 over TCP on top of a Server or a Pool, with
// connections multiplexing on real sockets. One request per connection
// (Connection: close semantics) keeps the demo loop simple. The
// embedded front owns the accept loop, lifecycle, drain order, batched
// queues and elastic controller; NetServer adds the protocol. With a
// gateway installed every request requires a bearer token and passes
// per-tenant admission, and the /healthz and /drainz lifecycle
// endpoints come alive.
type NetServer struct {
	*serve.Front
	handle func(ctx context.Context, clientID int, raw []byte) Response
}

// NewNetServer wraps srv for TCP serving; logger may be nil. The single
// Server owns one simulated core, so request handling is serialized
// behind a mutex.
func NewNetServer(srv *Server, logger *log.Logger) *NetServer {
	var mu sync.Mutex
	n := &NetServer{
		handle: func(ctx context.Context, clientID int, raw []byte) Response {
			mu.Lock()
			defer mu.Unlock()
			return srv.ServeContext(ctx, clientID, raw)
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
	}))
	return n
}

// NewNetServerPool wraps a Pool for TCP serving; logger may be nil. The
// pool synchronizes internally per worker, so requests on different
// workers execute in parallel.
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
	n := &NetServer{handle: p.ServeContext}
	n.Front = serve.New(frontName, logger, poolBackend(p, n))
	return n
}

// poolBackend is the backend a front over p serves for n. The httpd
// tier holds no durable state, so there is nothing to drain or close
// behind the queues.
func poolBackend(p *Pool, n *NetServer) serve.Backend {
	return serve.Backend{
		Workers:    p.Workers(),
		MaxDomains: MaxResizeWorkers,
		Conn:       n.serveConn,
		Resize:     p.ResizeWorkers,
		Domains:    p.ShardWorkers,
	}
}

// asyncReq is one connection request in flight through the submission
// queues; the drain loop fills resp before resolving the future.
type asyncReq struct {
	clientID int
	raw      []byte
	resp     Response
}

// NewBatchedNetServerPool wraps a Pool for TCP serving through the
// asynchronous submission layer: connections enqueue into bounded
// per-worker queues (internal/submit) and one drain loop per worker
// coalesces up to maxBatch queued requests into a single pipelined
// Server.ServeBatch — one domain Enter per parsing-domain group instead
// of per request. maxInflight bounds admitted-but-unanswered requests
// across the pool (<= 0 means 1024); at capacity new requests are
// answered 503 immediately with a deterministic Retry-After hint
// (admission control / backpressure). Call Close after Serve returns to
// stop the drain loops.
func NewBatchedNetServerPool(p *Pool, logger *log.Logger, maxInflight, maxBatch int) (*NetServer, error) {
	n := &NetServer{}
	f, err := serve.NewBatched(frontName, logger, poolBackend(p, n), maxInflight, maxBatch, func(si int, tasks []*submit.Task) {
		batch := make([]BatchRequest, len(tasks))
		for i, t := range tasks {
			a := t.Payload.(*asyncReq)
			batch[i] = BatchRequest{Ctx: t.Ctx, ClientID: a.clientID, Raw: a.raw}
		}
		resps := p.serveBatch(si, batch)
		for i, t := range tasks {
			t.Payload.(*asyncReq).resp = resps[i]
			t.Resolve(nil)
		}
	})
	if err != nil {
		return nil, err
	}
	n.Front = serve.Serving(f)
	var rr atomic.Uint64
	n.handle = func(ctx context.Context, clientID int, raw []byte) Response {
		a := &asyncReq{clientID: clientID, raw: raw}
		w := dispatch.LeastLoaded(p.Workers(), int(rr.Add(1)-1), f.Queues().Load)
		fut, err := n.Submit(w, ctx, a)
		// Requests are stateless, so a full first pick fails over to any
		// other worker's queue; only a pool-wide full sheds.
		for i := 1; i < p.Workers(); i++ {
			if _, over := submit.IsOverload(err); !over {
				break
			}
			fut, err = n.Submit((w+i)%p.Workers(), ctx, a)
		}
		if err != nil {
			// Overload (every queue full, with the front's retry hint) or
			// closed: shed with 503.
			cycles, _ := gateway.RetryAfterCycles(err)
			return Response{Status: 503, Err: err, RetryAfterCycles: cycles}
		}
		return respondAsync(a, fut)
	}
	return n, nil
}

// respondAsync maps an admitted request's future onto its response,
// waiting for resolution. A non-nil resolution means the drain loop
// never filled resp (the queues closed underneath the admitted
// request), so answer 503 with the typed error instead of a zero
// Response.
func respondAsync(a *asyncReq, fut *submit.Future) Response {
	if ferr := fut.Err(); ferr != nil {
		return Response{Status: 503, Err: ferr}
	}
	return a.resp
}

func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	raw, err := ReadRequestHead(bufio.NewReader(conn))
	if err != nil {
		n.Logf("conn %d read: %v", id, err)
		return
	}
	ctx, cancel := n.RequestContext()
	defer cancel()
	resp := n.dispatch(ctx, id, raw)
	if resp.Contained {
		n.Logf("conn %d: contained parser exploit (domain rewound)", id)
	}
	WriteHTTPResponse(conn, resp)
}

// dispatch routes one request: without a gateway it goes straight to
// the backend; with one, lifecycle endpoints are answered host-side and
// everything else runs the admission pipeline — bearer auth (401),
// per-tenant rate/quota/quarantine (429 + Retry-After), drain (503) —
// before the backend sees a byte, and reports its outcome to the
// tenant's circuit breaker afterwards.
func (n *NetServer) dispatch(ctx context.Context, id int, raw []byte) Response {
	gw := n.Gateway()
	if gw == nil {
		return n.handle(ctx, id, raw)
	}
	path := requestPath(raw)
	if path == "/healthz" {
		// Unauthenticated by design: load-balancer probes carry no
		// credentials, and the document holds no tenant secrets (only
		// tenant names and counters).
		return n.healthResponse(gw)
	}
	token, aerr := gateway.BearerToken(raw)
	if aerr != nil {
		n.Logf("conn %d auth rejected: %v", id, aerr)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	tenant, err := gw.Authenticate(token)
	if err != nil {
		n.Logf("conn %d auth rejected: %v", id, err)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	if path == "/drainz" {
		if derr := n.Drain(); derr != nil {
			return Response{Status: 500, Err: derr}
		}
		return Response{Status: 200, Body: []byte("draining\n")}
	}
	ticket, err := gw.Admit(tenant)
	if err != nil {
		return admissionResponse(err)
	}
	resp := n.handle(ctx, id, raw)
	// 408 is the wire mapping of a budget preemption (see finishSDRaD).
	ticket.Done(resp.Contained, resp.Status == 408)
	return resp
}

// admissionResponse maps a typed gateway rejection onto the wire:
// rate/quota/quarantine answer 429 with a deterministic Retry-After,
// drain answers 503.
func admissionResponse(err error) Response {
	if gateway.IsDraining(err) {
		return Response{Status: 503, Err: err}
	}
	if qe, ok := gateway.IsQuarantined(err); ok {
		return Response{
			Status:           429,
			Err:              err,
			RetryAfterCycles: gateway.QuantizeRetryCycles(qe.ProbeIn * serve.RetryCyclesPerSlot),
		}
	}
	if cycles, ok := gateway.RetryAfterCycles(err); ok {
		return Response{Status: 429, Err: err, RetryAfterCycles: cycles}
	}
	return Response{Status: 503, Err: err}
}

// healthResponse renders the health document (shard tier states are the
// gateway owner's concern on kvstore; httpd's workers hold no durable
// state, so the document carries drain state and tenant counters).
func (n *NetServer) healthResponse(gw *gateway.Gateway) Response {
	draining := n.Draining() || gw.Draining()
	h := gateway.BuildHealth(draining, n.Workers(), nil, gw.Stats().Snapshot())
	return Response{Status: h.Status(), Body: h.JSON()}
}

// requestPath extracts the path from an HTTP/1.x request line, "" when
// malformed (the backend parser then produces the 400).
func requestPath(raw []byte) string {
	line := raw
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	parts := bytes.Split(bytes.TrimRight(line, "\r"), []byte(" "))
	if len(parts) != 3 {
		return ""
	}
	return string(parts[1])
}

// maxHeadSize bounds an HTTP request head.
const maxHeadSize = 64 << 10

// ReadRequestHead reads bytes up to and including the blank line that
// terminates an HTTP request head. A head longer than 64 KiB is an
// error as soon as the limit is passed, even in the middle of a line,
// so a client cannot make the server buffer without bound.
func ReadRequestHead(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	for start := 0; ; {
		chunk, err := r.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(buf) > maxHeadSize {
			return nil, errors.New("httpd: request head too large")
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // the line goes on past the reader's buffer
		}
		if err != nil {
			if errors.Is(err, io.EOF) && len(buf) > 0 {
				return buf, nil
			}
			return nil, err
		}
		if line := buf[start:]; string(line) == "\r\n" || string(line) == "\n" {
			return buf, nil
		}
		start = len(buf)
	}
}

// WriteHTTPResponse renders resp on the wire with Connection: close,
// including a Retry-After header when the response carries a retry
// hint.
func WriteHTTPResponse(w io.Writer, resp Response) {
	status := resp.Status
	if status == 0 {
		status = 500
	}
	body := resp.Body
	if body == nil && resp.Err != nil {
		body = []byte(resp.Err.Error() + "\n")
	}
	retry := ""
	if resp.RetryAfterCycles > 0 {
		retry = fmt.Sprintf("Retry-After: %d\r\n", gateway.RetrySeconds(resp.RetryAfterCycles))
	}
	_, err := fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n",
		status, StatusText(status), len(body), retry)
	if err != nil {
		return
	}
	_, _ = w.Write(body)
}

// StatusText returns the reason phrase for the status codes the server
// emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 408:
		return "Request Timeout"
	case 429:
		return "Too Many Requests"
	case 503:
		return "Service Unavailable"
	default:
		return "Internal Server Error"
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// loadClient is one closed-loop client: it sends its next burst only after
// every reply of the previous one arrived, as memcached and HTTP
// clients do.
type loadClient interface {
	// step sends the next burst, waits for every reply and checks it.
	// An error means the connection can no longer be used.
	step(rec *recorder) error
	close() error
}

// window is the span over which throughput is counted; the reported
// throughput is the median over the run's windows, so a short stall
// caused by anything else on the host moves one window, not the result.
const window = 500 * time.Millisecond

// recorder collects one client's outcomes while the measurement window
// is open.
type recorder struct {
	on                 bool
	t0                 time.Time // start of the measurement
	attempted, correct int64
	lat                []int64 // ns, one per reply
	wins               []int64 // correct replies per window
}

// done records a reply to a request sent at sent.
func (r *recorder) done(ok bool, sent time.Time) {
	if !r.on {
		return
	}
	now := time.Now()
	r.attempted++
	if ok {
		r.correct++
		if w := int(now.Sub(r.t0) / window); w < len(r.wins) {
			r.wins[w]++
		}
	}
	r.lat = append(r.lat, int64(now.Sub(sent)))
}

// fail counts n requests that got no reply.
func (r *recorder) fail(n int) {
	if r.on {
		r.attempted += int64(n)
	}
}

// runStats is the outcome of one timed closed-loop run.
type runStats struct {
	attempted, correct int64
	elapsed            time.Duration
	cpu                time.Duration // process user+sys CPU in the window
	lat                []int64       // sorted
	winRPS             []float64     // correct replies per second, per whole window
	errs               []error
}

// runClosedLoop drives every client for warm (not measured), then for
// dur (measured), and returns the measured outcomes.
func runClosedLoop(clients []loadClient, warm, dur time.Duration) runStats {
	var phase atomic.Int32 // 0 warm-up, 1 measuring, 2 stop
	var t0 time.Time       // written before phase 1 is published
	nwin := int(dur / window)
	recs := make([]*recorder, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, d := range clients {
		rec := &recorder{lat: make([]int64, 0, 1<<20), wins: make([]int64, nwin)}
		recs[i] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := phase.Load()
				if p == 2 {
					return
				}
				if p == 1 && !rec.on {
					rec.on, rec.t0 = true, t0
				}
				if err := d.step(rec); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	time.Sleep(warm)
	cpu0 := processCPU()
	t0 = time.Now()
	phase.Store(1)
	time.Sleep(dur)
	phase.Store(2)
	st := runStats{elapsed: time.Since(t0), cpu: processCPU() - cpu0}
	wg.Wait()
	n := 0
	for _, r := range recs {
		n += len(r.lat)
	}
	st.lat = make([]int64, 0, n)
	for i, r := range recs {
		st.attempted += r.attempted
		st.correct += r.correct
		st.lat = append(st.lat, r.lat...)
		if errs[i] != nil {
			st.errs = append(st.errs, errs[i])
		}
	}
	sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
	for w := 0; w < nwin; w++ {
		var n int64
		for _, r := range recs {
			n += r.wins[w]
		}
		st.winRPS = append(st.winRPS, float64(n)/window.Seconds())
	}
	return st
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// processCPU returns the process's user+sys CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// kvConn is a memcached-protocol client over one in-memory connection.
// Pipelined connections write on their own goroutine: net.Pipe is
// unbuffered, and a burst larger than the server's read buffer would
// otherwise block the client in Write while the server blocks writing
// the first reply. A connection with one request in flight writes
// inline — its request is consumed by one server read before any reply
// is written.
type kvConn struct {
	st     *kvStream
	shadow *kvShadow
	burst  int
	conn   net.Conn
	r      *bufio.Reader
	bursts chan []byte
	wdone  chan error
	pos    int
}

func dialKV(ln *pipeListener, st *kvStream, shadow *kvShadow, burst int, token string) (*kvConn, error) {
	conn, err := ln.Dial()
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := &kvConn{st: st, shadow: shadow, burst: burst, conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	if burst > 1 {
		c.bursts = make(chan []byte)
		c.wdone = make(chan error, 1)
		go c.writeLoop()
	}
	if token != "" {
		if err := c.send([]byte("auth " + token + "\r\n")); err != nil {
			return nil, fmt.Errorf("auth: %w", err)
		}
		line, err := c.r.ReadSlice('\n')
		if err != nil || string(line) != "OK\r\n" {
			return nil, fmt.Errorf("auth refused: %q %v", line, err)
		}
	}
	return c, nil
}

func (c *kvConn) writeLoop() {
	var err error
	for b := range c.bursts {
		if err == nil {
			_, err = c.conn.Write(b)
		}
	}
	c.wdone <- err
}

func (c *kvConn) send(b []byte) error {
	if c.bursts != nil {
		c.bursts <- b
		return nil
	}
	_, err := c.conn.Write(b)
	return err
}

func (c *kvConn) step(rec *recorder) error {
	i, n := c.pos, c.burst
	t0 := time.Now()
	if err := c.send(c.st.burstBytes(i, n)); err != nil {
		rec.fail(n)
		return err
	}
	for k := 0; k < n; k++ {
		ok, err := c.shadow.checkWire(c.r, &c.st.ops[i+k])
		if err != nil {
			rec.fail(n - k)
			return err
		}
		rec.done(ok, t0)
	}
	c.pos = (i + n) % len(c.st.ops)
	return nil
}

func (c *kvConn) close() error {
	err := c.conn.Close()
	if c.bursts != nil {
		close(c.bursts)
		<-c.wdone // the write error after Close is expected
	}
	return err
}

// httpConn is an HTTP/1.1 client. The server answers one request per
// connection and then closes it, so every request dials anew.
type httpConn struct {
	ln  *pipeListener
	ops []httpOp
	exp *httpExpect
	pos int
	buf bytes.Buffer
}

func (c *httpConn) step(rec *recorder) error {
	op := &c.ops[c.pos]
	c.pos = (c.pos + 1) % len(c.ops)
	t0 := time.Now()
	conn, err := c.ln.Dial()
	if err != nil {
		rec.fail(1)
		return fmt.Errorf("dial: %w", err)
	}
	_, err = conn.Write(op.raw)
	c.buf.Reset()
	if err == nil {
		_, err = c.buf.ReadFrom(conn)
	}
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		rec.fail(1)
		return err
	}
	rec.done(c.exp.check(op, c.buf.Bytes()), t0)
	return nil
}

func (c *httpConn) close() error { return nil }

// callConn is a client that calls a request handler directly: the
// cluster router has no network front inside a package, so its clients
// make the call cmd/sdrad-cluster's connection loop makes.
type callConn struct {
	handle func(ctx context.Context, clientID int, req workload.Request) kvstore.Response
	id     int
	st     *kvStream
	shadow *kvShadow
	pos    int
}

func (c *callConn) step(rec *recorder) error {
	op := &c.st.ops[c.pos]
	c.pos = (c.pos + 1) % len(c.st.ops)
	t0 := time.Now()
	resp := c.handle(context.Background(), c.id, op.req)
	rec.done(c.shadow.checkResp(op, resp), t0)
	return nil
}

func (c *callConn) close() error { return nil }

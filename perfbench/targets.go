package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// Server sizes: the kvd and httpd defaults on the reference 2-vCPU host.
const (
	nShards     = 2
	maxInflight = 1024
	maxBatch    = 32
)

// target is one workload's server under test plus its clients' inputs.
type target interface {
	// connect opens one client per connection.
	connect() ([]loadClient, error)
	// stop stops serving after the clients closed, and drops the
	// clients' inputs so that the heap figure is the server's.
	stop() error
	// recover drains the server, then reps times brings a restarted
	// server back to the drained state, timing each restart. It returns
	// the restart times and how many restarts did not reproduce the
	// pre-drain state.
	recover(reps int) ([]float64, int, error)
	close() error
}

// digest hashes a key→value state in key order.
func digest(m map[string][]byte) [32]byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:%s:%d:", len(k), k, len(m[k]))
		h.Write(m[k])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// dumpPool copies every shard's resident items (Cache.Dump). The pool
// must be idle.
func dumpPool(p *kvstore.Pool) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for i := 0; i < p.Workers(); i++ {
		m, err := p.Shard(i).Cache().Dump()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}

// reload SETs every item of state through handle in key order.
func reload(state map[string][]byte, handle func([]kvstore.BatchRequest) []kvstore.Response) error {
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = state[k]
	}
	return preloadKV(keys, vals, handle)
}

// restarted is a server brought back up after the drain.
type restarted struct {
	state func() (map[string][]byte, error)
	close func() error
}

// timeRestarts restarts the server at least reps times and for at least
// recoverySpan, and times each restart. Before each, freed memory goes
// back to the OS, so that every restart starts from the same heap and
// pays the same page faults. A restart whose state does not hash to
// want is a mismatch.
func timeRestarts(reps int, want [32]byte, restart func() (restarted, error)) ([]float64, int, error) {
	var secs []float64
	mismatches := 0
	for i, start := 0, time.Now(); i < reps || time.Since(start) < recoverySpan; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		r, err := restart()
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		state, err := r.state()
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
		if digest(state) != want {
			mismatches++
		}
	}
	return secs, mismatches, nil
}

// drainAndClose drains a server gracefully, then releases it.
func drainAndClose(s interface {
	Drain() error
	Close() error
}) error {
	if err := s.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// front serves a NetServer on an in-memory listener.
type front struct {
	ln     *pipeListener
	served chan error
	halted bool
	err    error
}

func startFront(serve func(net.Listener) error) *front {
	f := &front{ln: newPipeListener(), served: make(chan error, 1)}
	go func() { f.served <- serve(f.ln) }()
	return f
}

// halt closes the listener and waits for Serve to return, which it does
// once every client connection has closed. Idempotent.
func (f *front) halt() error {
	if !f.halted {
		f.halted = true
		_ = f.ln.Close()
		f.err = <-f.served
	}
	return f.err
}

// snapshotEvery is the durable workload's snapshot cadence in committed
// batches per shard. Every snapshot rewrites and fsyncs the shard's
// whole heap image, whatever the Fsync setting. At kvd's default of 64
// that rewrite dominated the run and tied its figures to the shared
// disk (p99 spread 0.52 over five seeds on a 2-vCPU VM); at 256 the
// stalls still set p99 and repeat within 5%.
const snapshotEvery = 256

// kvConfig is a key-value workload's server configuration.
type kvConfig struct {
	spec     kvSpec
	capacity uint64
	durable  bool // WAL + snapshots in the run's data dir
	gateway  bool // one tenant per connection
}

func (c kvConfig) serverConfig(dir string) kvstore.ServerConfig {
	cfg := kvstore.ServerConfig{Mode: kvstore.ModeSDRaD}
	if c.durable {
		// fsync off: with it on, the figure is the disk's speed.
		cfg.Persist = &kvstore.PersistConfig{Dir: dir, Fsync: false, SnapshotEvery: snapshotEvery}
	}
	return cfg
}

// The gateway credentials: one tenant per connection.
func tenantName(c int) string  { return fmt.Sprintf("tenant-%d", c) }
func tenantToken(c int) string { return fmt.Sprintf("bench-token-%d", c) }

// newGateway builds a gateway whose limits never throttle the
// benchmark's load, so admission costs work but rejects nothing.
func newGateway() (*gateway.Gateway, error) {
	tokens := make(map[string]string, nConns)
	for c := 0; c < nConns; c++ {
		tokens[tenantName(c)] = tenantToken(c)
	}
	table, err := gateway.NewTable(tokens)
	if err != nil {
		return nil, err
	}
	return gateway.New(gateway.Config{
		Table:           table,
		Limits:          gateway.Limits{Burst: 1 << 30, RefillEvery: 1, MaxInflight: 1 << 30},
		QuarantineAfter: -1,
	})
}

// kvTarget serves the memcached protocol through the batched kvd front
// over in-memory connections.
type kvTarget struct {
	cfg  kvConfig
	dir  string
	in   kvInputs
	pool *kvstore.Pool
	srv  *kvstore.NetServer
	*front
}

func buildKV(cfg kvConfig, seed uint64, dir string) (*kvTarget, error) {
	t := &kvTarget{cfg: cfg, dir: dir}
	var err error
	if t.in, err = genKVInputs(cfg.spec, seed); err != nil {
		return nil, err
	}
	if t.pool, err = kvstore.NewPool(core.DefaultConfig(), cfg.serverConfig(dir), nShards, cfg.capacity); err != nil {
		return nil, err
	}
	if err := preloadKV(t.in.keys, t.in.preload, t.pool.HandleBatchMixed); err != nil {
		_ = t.pool.Close()
		return nil, err
	}
	if t.srv, err = kvstore.NewBatchedNetServerPool(t.pool, nil, maxInflight, maxBatch); err != nil {
		_ = t.pool.Close()
		return nil, err
	}
	if cfg.gateway {
		gw, err := newGateway()
		if err != nil {
			_ = t.srv.Close()
			return nil, err
		}
		t.srv.SetGateway(gw)
	}
	t.front = startFront(t.srv.Serve)
	return t, nil
}

func (t *kvTarget) connect() ([]loadClient, error) {
	clients := make([]loadClient, 0, nConns)
	for c, st := range t.in.streams {
		token := ""
		if t.cfg.gateway {
			token = tenantToken(c)
		}
		d, err := dialKV(t.ln, st, newShadow(t.in.keys, t.in.preload, t.cfg.spec.evictable), t.cfg.spec.burst, token)
		if err != nil {
			for _, d := range clients {
				_ = d.close()
			}
			return nil, err
		}
		clients = append(clients, d)
	}
	return clients, nil
}

func (t *kvTarget) stop() error {
	t.in = kvInputs{}
	return t.halt()
}

func (t *kvTarget) recover(reps int) ([]float64, int, error) {
	before, err := dumpPool(t.pool)
	if err != nil {
		return nil, 0, err
	}
	if err := drainAndClose(t.srv); err != nil {
		return nil, 0, err
	}
	return timeRestarts(reps, digest(before), func() (restarted, error) {
		// Durable: reopening the data dir is the recovery. Memory only:
		// the restarted server reloads the drained state.
		p, err := kvstore.NewPool(core.DefaultConfig(), t.cfg.serverConfig(t.dir), nShards, t.cfg.capacity)
		if err != nil {
			return restarted{}, fmt.Errorf("reopen: %w", err)
		}
		if !t.cfg.durable {
			if err := reload(before, p.HandleBatchMixed); err != nil {
				return restarted{}, errors.Join(err, p.Close())
			}
		}
		return restarted{state: func() (map[string][]byte, error) { return dumpPool(p) }, close: p.Close}, nil
	})
}

func (t *kvTarget) close() error {
	return errors.Join(t.halt(), t.srv.Close())
}

// routedConfig is cmd/sdrad-cluster's default fleet.
func routedConfig() cluster.RouterConfig {
	return cluster.RouterConfig{
		Nodes:         3,
		Replicas:      1,
		ShardsPerNode: 1,
		Sys:           core.DefaultConfig(),
		Server:        kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Microsecond},
		Capacity:      64 << 20,
	}
}

// routedTarget drives the cluster router directly.
type routedTarget struct {
	in     kvInputs
	router *cluster.Router
}

func buildRouted(spec kvSpec, seed uint64) (*routedTarget, error) {
	t := &routedTarget{}
	var err error
	if t.in, err = genKVInputs(spec, seed); err != nil {
		return nil, err
	}
	if t.router, err = cluster.NewRouter(routedConfig()); err != nil {
		return nil, err
	}
	if err := preloadKV(t.in.keys, t.in.preload, t.router.HandleBatch); err != nil {
		_ = t.router.Close()
		return nil, err
	}
	return t, nil
}

func (t *routedTarget) connect() ([]loadClient, error) {
	clients := make([]loadClient, nConns)
	for c, st := range t.in.streams {
		clients[c] = &callConn{handle: t.router.HandleContext, id: c + 1, st: st, shadow: newShadow(t.in.keys, t.in.preload, false)}
	}
	return clients, nil
}

func (t *routedTarget) stop() error {
	t.in = kvInputs{}
	return nil
}

func (t *routedTarget) recover(reps int) ([]float64, int, error) {
	before, err := t.router.Dump()
	if err != nil {
		return nil, 0, err
	}
	if err := drainAndClose(t.router); err != nil {
		return nil, 0, err
	}
	return timeRestarts(reps, digest(before), func() (restarted, error) {
		r, err := cluster.NewRouter(routedConfig())
		if err != nil {
			return restarted{}, err
		}
		if err := reload(before, r.HandleBatch); err != nil {
			return restarted{}, errors.Join(err, r.Close())
		}
		return restarted{state: r.Dump, close: r.Close}, nil
	})
}

func (t *routedTarget) close() error { return t.router.Close() }

// httpTarget serves the static pages through the batched httpd front.
type httpTarget struct {
	pages [][]byte
	exp   *httpExpect
	ops   [][]httpOp
	srv   *httpd.NetServer
	*front
}

// httpRing is the number of pre-generated requests per connection.
const httpRing = 4096

func newHTTPPool(pages [][]byte) (*httpd.Pool, error) {
	p, err := httpd.NewPool(core.DefaultConfig(), httpd.Config{Mode: httpd.ModeSDRaD}, nShards)
	if err != nil {
		return nil, err
	}
	for i, pg := range pages {
		p.HandleFunc(workload.Path(i), pg)
	}
	return p, nil
}

func buildHTTP(seed uint64) (*httpTarget, error) {
	t := &httpTarget{pages: genPages(seed)}
	t.exp = newHTTPExpect(t.pages)
	for c := 0; c < nConns; c++ {
		ops, err := genHTTP(seed, c, httpRing)
		if err != nil {
			return nil, err
		}
		t.ops = append(t.ops, ops)
	}
	pool, err := newHTTPPool(t.pages)
	if err != nil {
		return nil, err
	}
	if t.srv, err = httpd.NewBatchedNetServerPool(pool, nil, maxInflight, maxBatch); err != nil {
		return nil, err
	}
	t.front = startFront(t.srv.Serve)
	return t, nil
}

func (t *httpTarget) connect() ([]loadClient, error) {
	clients := make([]loadClient, nConns)
	for c := range clients {
		clients[c] = &httpConn{ln: t.ln, ops: t.ops[c], exp: t.exp}
	}
	return clients, nil
}

func (t *httpTarget) stop() error {
	t.ops = nil
	return t.halt()
}

// recover restarts the web server: the pages are its whole state, so a
// restart is construction plus registration, and the restarted state is
// what every page's GET returns.
func (t *httpTarget) recover(reps int) ([]float64, int, error) {
	if err := drainAndClose(t.srv); err != nil {
		return nil, 0, err
	}
	want := make(map[string][]byte, len(t.pages))
	for i, pg := range t.pages {
		want[workload.Path(i)] = pg
	}
	return timeRestarts(reps, digest(want), func() (restarted, error) {
		p, err := newHTTPPool(t.pages)
		if err != nil {
			return restarted{}, err
		}
		state := func() (map[string][]byte, error) {
			got := make(map[string][]byte, len(want))
			for path := range want {
				if resp := p.Serve(0, httpd.BuildRequest("GET", path, nil)); resp.Status == 200 {
					got[path] = resp.Body
				}
			}
			return got, nil
		}
		return restarted{state: state, close: func() error { return nil }}, nil
	})
}

func (t *httpTarget) close() error {
	return errors.Join(t.halt(), t.srv.Close())
}

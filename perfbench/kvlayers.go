package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/submit"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Worker-domain UDIs the replayed servers use (the servers' defaults,
// set explicitly so the rewind counters can be read back).
const (
	kvFirstWorkerUDI   core.UDI = 10
	httpFirstWorkerUDI core.UDI = 30
)

// kvInterArrival is the servers' default modelled gap between arrivals;
// the virtual pass subtracts it to report busy cycles.
const kvInterArrival = 100 * time.Microsecond

// shardOf is the pool's key→shard map (32-bit FNV-1a modulo the shard
// count), so replayed requests land where the served ones do.
func shardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % nShards)
}

// timedStore wraps a shard's persist.Store with spans and counts the
// snapshot bytes it is handed.
type timedStore struct {
	persist.Store
	buf           *spanBuf // the shard's executing goroutine's buffer
	parent        int32    // the HandleBatch span in progress
	snapshotBytes uint64
}

func (s *timedStore) Append(records [][]byte) error {
	id := s.buf.begin(spAppend, s.parent, -1)
	err := s.Store.Append(records)
	s.buf.end(id)
	return err
}

func (s *timedStore) Snapshot(meta []byte, delta []persist.SnapshotPage) error {
	s.snapshotBytes += uint64(len(meta))
	for _, p := range delta {
		s.snapshotBytes += uint64(len(p.Data))
	}
	id := s.buf.begin(spSnapshot, s.parent, -1)
	err := s.Store.Snapshot(meta, delta)
	s.buf.end(id)
	return err
}

// kvShard is one shard the replay composes itself: a kvstore.Server
// over its own core.System, with a counting tracer and, when durable, a
// timed store.
type kvShard struct {
	sys   *core.System
	ec    *eventCounter
	cache *kvstore.Cache
	srv   *kvstore.Server
	store *timedStore
}

func newKVShards(cfg kvConfig, dir string, pm *metrics.Persist) ([]*kvShard, error) {
	shards := make([]*kvShard, 0, nShards)
	fail := func(err error) ([]*kvShard, error) {
		_ = closeKVShards(shards)
		return nil, err
	}
	for i := 0; i < nShards; i++ {
		sys := core.NewSystem(core.DefaultConfig())
		ec := newEventCounter(sys)
		sys.SetTracer(ec)
		cache, err := kvstore.NewCache(sys, kvstore.StorageUDIForPool, cfg.capacity/nShards)
		if err != nil {
			return fail(err)
		}
		srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, FirstWorkerUDI: kvFirstWorkerUDI})
		if err != nil {
			return fail(err)
		}
		sh := &kvShard{sys: sys, ec: ec, cache: cache, srv: srv}
		if cfg.durable {
			st, err := persist.OpenFile(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)), persist.FileConfig{Metrics: pm})
			if err != nil {
				return fail(err)
			}
			sh.store = &timedStore{Store: st, parent: -1}
			if err := srv.AttachStore(sh.store, snapshotEvery); err != nil {
				_ = st.Close()
				return fail(err)
			}
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

func closeKVShards(shards []*kvShard) error {
	var errs []error
	for _, sh := range shards {
		errs = append(errs, sh.srv.Close())
	}
	return errors.Join(errs...)
}

// preloadShards SETs every key's initial value on its shard, each
// shard's share of a preload batch as one HandleBatch.
func preloadShards(shards []*kvShard, keys []string, preload [][]byte) error {
	return preloadKV(keys, preload, func(batch []kvstore.BatchRequest) []kvstore.Response {
		out := make([]kvstore.Response, len(batch))
		for si, sh := range shards {
			var sub []kvstore.BatchRequest
			var idx []int
			for i, br := range batch {
				if shardOf(br.Req.Key) == si {
					sub = append(sub, br)
					idx = append(idx, i)
				}
			}
			for j, resp := range sh.srv.HandleBatch(sub) {
				out[idx[j]] = resp
			}
		}
		return out
	})
}

func kvLayers(cfg kvConfig, seed uint64, dir string, dur time.Duration) (layerResult, error) {
	in, err := genKVInputs(cfg.spec, seed)
	if err != nil {
		return layerResult{}, err
	}
	m := map[string]float64{}
	pass := 0
	rs, err := replaySplit(dur, m, func(d time.Duration, traced bool) (replayStats, error) {
		pass++
		return kvReplay(cfg, in, filepath.Join(dir, fmt.Sprintf("replay-%d", pass)), d, traced, m)
	})
	if err != nil {
		return layerResult{}, err
	}
	va, vc, err := kvVirtual(cfg, in, filepath.Join(dir, "virtual"), m)
	if err != nil {
		return layerResult{}, err
	}
	return layerResult{attempted: rs.attempted + va, correct: rs.correct + vc, metrics: m, bufs: rs.bufs}, nil
}

// layerReq is one request travelling through the replayed submission
// queues; the executing goroutine stamps it before resolving.
type layerReq struct {
	clientID                     int
	req                          workload.Request
	resp                         kvstore.Response
	submitted, started, resolved int64
}

// kvReplay composes the kvd front's layers from their public calls —
// ReadCommand, gateway Admit, submit.Queues.Submit whose Exec calls
// Server.HandleBatch, Ticket.Done, WriteResponse — and drives them with
// the workload's streams for dur. When traced it records a span around
// every call and, in m, the per-layer figures.
func kvReplay(cfg kvConfig, in kvInputs, dir string, dur time.Duration, traced bool, m map[string]float64) (replayStats, error) {
	pm := &metrics.Persist{}
	shards, err := newKVShards(cfg, dir, pm)
	if err != nil {
		return replayStats{}, err
	}
	if err := preloadShards(shards, in.keys, in.preload); err != nil {
		_ = closeKVShards(shards)
		return replayStats{}, err
	}
	bufs := newBufs(nConns+nShards, traced)
	for si, sh := range shards {
		if sh.store != nil {
			sh.store.buf = bufs[nConns+si]
		}
	}
	var gw *gateway.Gateway
	if cfg.gateway {
		if gw, err = newGateway(); err != nil {
			_ = closeKVShards(shards)
			return replayStats{}, err
		}
	}
	q, err := submit.New(submit.Config{
		Workers:  nShards,
		Depth:    maxInflight / nShards,
		MaxBatch: maxBatch,
		Exec: func(si int, tasks []*submit.Task) {
			buf, sh := bufs[nConns+si], shards[si]
			start := buf.now()
			batch := make([]kvstore.BatchRequest, len(tasks))
			for i, t := range tasks {
				a := t.Payload.(*layerReq)
				a.started = start
				batch[i] = kvstore.BatchRequest{Ctx: t.Ctx, ClientID: a.clientID, Req: a.req}
			}
			id := buf.begin(spHandleBatch, -1, -1)
			if sh.store != nil {
				sh.store.parent = id
			}
			resps := sh.srv.HandleBatch(batch)
			buf.end(id)
			done := buf.now()
			for i, t := range tasks {
				a := t.Payload.(*layerReq)
				a.resp = resps[i]
				a.resolved = done
				t.Resolve(nil)
			}
		},
	})
	if err != nil {
		_ = closeKVShards(shards)
		return replayStats{}, err
	}

	deadline := time.Now().Add(dur)
	t0 := time.Now()
	stats := make([]kvClientStats, nConns)
	errs := make([]error, nConns)
	var wg sync.WaitGroup
	for c := 0; c < nConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &kvReplayClient{
				c: c, st: in.streams[c], shadow: newShadow(in.keys, in.preload, cfg.spec.evictable),
				burst: cfg.spec.burst, q: q, gw: gw, tenant: tenantName(c), buf: bufs[c],
			}
			errs[c] = cl.run(deadline, &stats[c])
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	q.Close()
	if err := errors.Join(append(errs, closeKVShards(shards))...); err != nil {
		return replayStats{}, err
	}
	var tot kvClientStats
	for _, s := range stats {
		tot.attempted += s.attempted
		tot.correct += s.correct
		tot.admits += s.admits
		tot.rejected += s.rejected
	}
	rs := replayStats{attempted: tot.attempted, correct: tot.correct, rps: float64(tot.correct) / elapsed.Seconds(), bufs: bufs}
	if !traced {
		return rs, nil
	}
	var qs submit.QueueStats
	for w := 0; w < nShards; w++ {
		s := q.Stats(w)
		qs.Submitted += s.Submitted
		qs.Rejected += s.Rejected
		qs.Batches += s.Batches
	}
	agg := aggregate(bufs)
	perCall := func(n spanName) float64 { return ratio(agg[n].self, agg[n].count) }
	m["kvstore.read_command_ns"] = perCall(spReadCommand)
	m["kvstore.write_response_ns"] = perCall(spWriteResponse)
	m["kvstore.handle_ns"] = ratio(agg[spHandleBatch].self, qs.Submitted)
	m["submit.queue_wait_ns"] = perCall(spQueueWait)
	m["submit.resolve_wait_ns"] = perCall(spResolveWait)
	m["submit.batch_mean"] = ratio(qs.Submitted, qs.Batches)
	m["submit.reject_frac"] = ratio(qs.Rejected, qs.Submitted+qs.Rejected)
	m["persist.append_ns"] = perCall(spAppend)
	m["persist.snapshot_ns"] = perCall(spSnapshot)
	if gw != nil {
		m["gateway.admit_ns"] = ratio(agg[spAdmit].total+agg[spTicketDone].total, agg[spAdmit].count)
		m["gateway.reject_frac"] = ratio(tot.rejected, tot.admits)
	}
	return rs, nil
}

type kvClientStats struct {
	attempted, correct, admits, rejected int64
}

// kvReplayClient plays one connection: it parses each burst of its
// wire bytes with ReadCommand, admits and submits every request, waits
// for them in order, renders the replies with WriteResponse and checks
// them against its shadow exactly as a client on the wire would.
type kvReplayClient struct {
	c      int
	st     *kvStream
	shadow *kvShadow
	burst  int
	q      *submit.Queues
	gw     *gateway.Gateway
	tenant string
	buf    *spanBuf
}

func (cl *kvReplayClient) run(deadline time.Time, s *kvClientStats) error {
	n, buf := cl.burst, cl.buf
	in := bytes.NewReader(nil)
	r := bufio.NewReaderSize(in, 64<<10)
	var out bytes.Buffer
	outIn := bytes.NewReader(nil)
	outR := bufio.NewReaderSize(outIn, 64<<10)
	reqs := make([]layerReq, n)
	futs := make([]*submit.Future, n)
	tickets := make([]*gateway.Ticket, n)
	roots := make([]int32, n)
	ids := make([]int64, n)
	var next int64
	for pos := 0; time.Now().Before(deadline); pos = (pos + n) % len(cl.st.ops) {
		in.Reset(cl.st.burstBytes(pos, n))
		r.Reset(in)
		out.Reset()
		for k := 0; k < n; k++ {
			ids[k] = int64(cl.c)<<40 | next
			next++
			roots[k] = buf.begin(spRequest, -1, ids[k])
			sp := buf.begin(spReadCommand, roots[k], ids[k])
			cmd, err := kvstore.ReadCommand(r)
			buf.end(sp)
			if err != nil {
				return fmt.Errorf("replay parse: %w", err)
			}
			reqs[k] = layerReq{clientID: cl.c + 1, req: cmd.Req}
			futs[k], tickets[k] = nil, nil
			if cl.gw != nil {
				sp = buf.begin(spAdmit, roots[k], ids[k])
				t, aerr := cl.gw.Admit(cl.tenant)
				buf.end(sp)
				s.admits++
				if aerr != nil {
					s.rejected++
					reqs[k].resp = kvstore.Response{Err: aerr}
					continue
				}
				tickets[k] = t
			}
			reqs[k].submitted = buf.now()
			fut, err := cl.q.Submit(shardOf(cmd.Req.Key), context.Background(), &reqs[k])
			if err != nil {
				reqs[k].resp = kvstore.Response{Err: err}
				continue
			}
			futs[k] = fut
		}
		for k := 0; k < n; k++ {
			a := &reqs[k]
			if futs[k] != nil {
				if ferr := futs[k].Err(); ferr != nil {
					a.resp = kvstore.Response{Err: ferr}
				} else {
					now := buf.now()
					buf.record(spQueueWait, roots[k], ids[k], a.submitted, a.started)
					buf.record(spResolveWait, roots[k], ids[k], a.resolved, now)
				}
			}
			if tickets[k] != nil {
				sp := buf.begin(spTicketDone, roots[k], ids[k])
				_, preempted := core.IsBudget(a.resp.Err)
				tickets[k].Done(a.resp.Contained, preempted)
				buf.end(sp)
			}
			sp := buf.begin(spWriteResponse, roots[k], ids[k])
			err := kvstore.WriteResponse(&out, a.req, a.resp)
			buf.end(sp)
			buf.end(roots[k])
			if err != nil {
				return err
			}
		}
		outIn.Reset(out.Bytes())
		outR.Reset(outIn)
		for k := 0; k < n; k++ {
			ok, err := cl.shadow.checkWire(outR, &cl.st.ops[pos+k])
			if err != nil {
				return err
			}
			s.attempted++
			if ok {
				s.correct++
			}
		}
	}
	return nil
}

// kvVirtual replays every connection's whole ring in a fixed order: each round takes one burst per connection, and each
// shard serves its share of the round as one HandleBatch. It records
// the virtual counts, allocations and cache and persistence counters,
// and checks every reply.
func kvVirtual(cfg kvConfig, in kvInputs, dir string, m map[string]float64) (attempted, correct int64, err error) {
	pm := &metrics.Persist{}
	shards, err := newKVShards(cfg, dir, pm)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := closeKVShards(shards); err == nil {
			err = cerr
		}
	}()
	if err := preloadShards(shards, in.keys, in.preload); err != nil {
		return 0, 0, err
	}
	shadows := make([]*kvShadow, nConns)
	for c := range shadows {
		shadows[c] = newShadow(in.keys, in.preload, cfg.spec.evictable)
	}
	before := make([]sysCounts, nShards)
	cache0 := make([]kvstore.CacheStats, nShards)
	for si, sh := range shards {
		before[si] = snapSys(sh.sys, sh.ec, kvFirstWorkerUDI, sh.srv.Workers())
		cache0[si] = sh.cache.Stats()
	}
	type ref struct {
		c  int
		op *kvOp
	}
	batches := make([][]kvstore.BatchRequest, nShards)
	refs := make([][]ref, nShards)
	for si := range batches {
		batches[si] = make([]kvstore.BatchRequest, 0, nConns*cfg.spec.burst)
		refs[si] = make([]ref, 0, nConns*cfg.spec.burst)
	}
	var acked uint64 // value bytes of acknowledged SETs
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n := cfg.spec.burst
	for pos := 0; pos < len(in.streams[0].ops); pos += n {
		for c := 0; c < nConns; c++ {
			for k := 0; k < n; k++ {
				op := &in.streams[c].ops[pos+k]
				si := shardOf(op.req.Key)
				batches[si] = append(batches[si], kvstore.BatchRequest{ClientID: c + 1, Req: op.req})
				refs[si] = append(refs[si], ref{c, op})
			}
		}
		for si, sh := range shards {
			if len(batches[si]) == 0 {
				continue
			}
			for j, resp := range sh.srv.HandleBatch(batches[si]) {
				rf := refs[si][j]
				attempted++
				if shadows[rf.c].checkResp(rf.op, resp) {
					correct++
					if !rf.op.get {
						acked += uint64(len(rf.op.val))
					}
				}
			}
			batches[si], refs[si] = batches[si][:0], refs[si][:0]
		}
	}
	allocs := allocsSince(&ms0)
	reqs := uint64(attempted)
	var tot sysCounts
	var hits, misses, evictions, snapBytes uint64
	for si, sh := range shards {
		tot.addDelta(snapSys(sh.sys, sh.ec, kvFirstWorkerUDI, sh.srv.Workers()), before[si])
		cs := sh.cache.Stats()
		hits += cs.Hits - cache0[si].Hits
		misses += cs.Misses - cache0[si].Misses
		evictions += cs.Evictions - cache0[si].Evictions
		if sh.store != nil {
			snapBytes += sh.store.snapshotBytes
		}
	}
	tot.virtualMetrics(m, reqs)
	hz := shards[0].sys.Clock().Model().CPUHz
	m["kvstore.vcycles_per_req"] = ratio(tot.cycles-reqs*vclock.DurationToCycles(kvInterArrival, hz), reqs)
	m["kvstore.allocs_per_req"] = ratio(allocs, reqs)
	m["kvstore.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["kvstore.evictions_per_req"] = ratio(evictions, reqs)
	if cfg.durable {
		ps := pm.Snapshot()
		m["persist.appends_per_req"] = ratio(ps.Appends, reqs)
		m["persist.snapshot_pages"] = ratio(ps.SnapshotPages, ps.Snapshots)
		m["persist.write_amp"] = ratio(ps.AppendedBytes+snapBytes, acked)
	}
	return attempted, correct, nil
}

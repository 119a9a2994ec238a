package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/vclock"
)

// routedSegment is how many requests a replay client sends through the
// router before sending the same ones through the bare pool, so both
// see the same stream under the same conditions.
const routedSegment = 256

// newRouter builds the cluster router, preloaded.
func newRouter(in kvInputs) (*cluster.Router, error) {
	r, err := cluster.NewRouter(routedConfig())
	if err != nil {
		return nil, err
	}
	if err := preloadKV(in.keys, in.preload, r.HandleBatch); err != nil {
		return nil, errors.Join(err, r.Close())
	}
	return r, nil
}

// newBarePool builds a pool with one shard per router node, preloaded.
func newBarePool(in kvInputs) (*kvstore.Pool, error) {
	cfg := routedConfig()
	p, err := kvstore.NewPool(cfg.Sys, cfg.Server, cfg.Nodes*cfg.ShardsPerNode, uint64(cfg.Nodes)*cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if err := preloadKV(in.keys, in.preload, p.HandleBatchMixed); err != nil {
		return nil, errors.Join(err, p.Close())
	}
	return p, nil
}

func routedLayers(spec kvSpec, seed uint64, dur time.Duration) (layerResult, error) {
	in, err := genKVInputs(spec, seed)
	if err != nil {
		return layerResult{}, err
	}
	m := map[string]float64{}
	rs, err := replaySplit(dur, m, func(d time.Duration, traced bool) (replayStats, error) {
		return routedReplay(in, d, traced, m)
	})
	if err != nil {
		return layerResult{}, err
	}
	va, vc, err := routedVirtual(in, m)
	if err != nil {
		return layerResult{}, err
	}
	return layerResult{attempted: rs.attempted + va, correct: rs.correct + vc, metrics: m, bufs: rs.bufs}, nil
}

// routedReplay sends each connection's stream alternately through
// Router.HandleContext and a bare kvstore.Pool, segment by segment;
// cluster.route_ns is the difference of their mean times per request.
// Throughput counts the router's requests over the router's time.
func routedReplay(in kvInputs, dur time.Duration, traced bool, m map[string]float64) (replayStats, error) {
	r, err := newRouter(in)
	if err != nil {
		return replayStats{}, err
	}
	p, err := newBarePool(in)
	if err != nil {
		return replayStats{}, errors.Join(err, r.Close())
	}
	bufs := newBufs(nConns, traced)
	type connStats struct {
		attempted, correct, routed int64
		routerTime                 time.Duration
	}
	stats := make([]connStats, nConns)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < nConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, st, s := bufs[c], in.streams[c], &stats[c]
			viaRouter := newShadow(in.keys, in.preload, false)
			viaPool := newShadow(in.keys, in.preload, false)
			ctx := context.Background()
			var next int64
			for pos := 0; time.Now().Before(deadline); pos = (pos + routedSegment) % len(st.ops) {
				t0 := time.Now()
				for k := 0; k < routedSegment; k++ {
					op := &st.ops[pos+k]
					sp := buf.begin(spRoute, -1, int64(c)<<40|(next+int64(k)))
					resp := r.HandleContext(ctx, c+1, op.req)
					buf.end(sp)
					s.attempted++
					if viaRouter.checkResp(op, resp) {
						s.correct++
					}
				}
				s.routerTime += time.Since(t0)
				s.routed += routedSegment
				for k := 0; k < routedSegment; k++ {
					op := &st.ops[pos+k]
					sp := buf.begin(spPoolHandle, -1, int64(c)<<40|(next+int64(k)))
					resp := p.HandleContext(ctx, c+1, op.req)
					buf.end(sp)
					s.attempted++
					if viaPool.checkResp(op, resp) {
						s.correct++
					}
				}
				next += routedSegment
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(r.Close(), p.Close()); err != nil {
		return replayStats{}, err
	}
	rs := replayStats{bufs: bufs}
	for _, s := range stats {
		rs.attempted += s.attempted
		rs.correct += s.correct
		rs.rps += ratio(s.routed, s.routerTime.Seconds())
	}
	if traced {
		agg := aggregate(bufs)
		m["cluster.route_ns"] = ratio(agg[spRoute].total, agg[spRoute].count) - ratio(agg[spPoolHandle].total, agg[spPoolHandle].count)
	}
	return rs, nil
}

// routedVirtual replays every connection's whole ring through the
// router in a fixed order (one request per connection in
// turn). The router does not expose its nodes' machines, so the virtual
// figures are the servers' own per-request service cycles and the
// replica applies: acknowledged mutations times the replicas each one
// is shipped to.
func routedVirtual(in kvInputs, m map[string]float64) (attempted, correct int64, err error) {
	r, err := newRouter(in)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}()
	cfg := routedConfig()
	hz := core.DefaultConfig().Cost.CPUHz
	shadows := make([]*kvShadow, nConns)
	for c := range shadows {
		shadows[c] = newShadow(in.keys, in.preload, false)
	}
	var busy, mutations uint64
	ctx := context.Background()
	for i := range in.streams[0].ops {
		for c := 0; c < nConns; c++ {
			op := &in.streams[c].ops[i]
			resp := r.HandleContext(ctx, c+1, op.req)
			busy += vclock.DurationToCycles(resp.Latency, hz)
			attempted++
			if shadows[c].checkResp(op, resp) {
				correct++
				if !op.get {
					mutations++
				}
			}
		}
	}
	replicas := min(cfg.Replicas, len(r.NodeIDs())-1)
	m["kvstore.vcycles_per_req"] = ratio(busy, attempted)
	m["cluster.replica_applies_per_req"] = ratio(mutations*uint64(replicas), attempted)
	return attempted, correct, nil
}

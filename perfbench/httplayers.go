package main

import (
	"bufio"
	"bytes"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/workload"
)

// httpServer is one web server the replay composes itself: an
// httpd.Server over its own core.System with a counting tracer.
type httpServer struct {
	sys *core.System
	ec  *eventCounter
	srv *httpd.Server
}

func newHTTPServer(pages [][]byte) (*httpServer, error) {
	sys := core.NewSystem(core.DefaultConfig())
	ec := newEventCounter(sys)
	sys.SetTracer(ec)
	srv, err := httpd.NewServer(sys, httpd.Config{Mode: httpd.ModeSDRaD, FirstWorkerUDI: httpFirstWorkerUDI})
	if err != nil {
		return nil, err
	}
	for i, p := range pages {
		srv.HandleFunc(workload.Path(i), p)
	}
	return &httpServer{sys: sys, ec: ec, srv: srv}, nil
}

// httpInputs are the web workload's generated inputs.
type httpInputs struct {
	pages [][]byte
	exp   *httpExpect
	ops   [][]httpOp
}

func genHTTPInputs(seed uint64) (httpInputs, error) {
	in := httpInputs{pages: genPages(seed)}
	in.exp = newHTTPExpect(in.pages)
	for c := 0; c < nConns; c++ {
		ops, err := genHTTP(seed, c, httpRing)
		if err != nil {
			return httpInputs{}, err
		}
		in.ops = append(in.ops, ops)
	}
	return in, nil
}

func httpLayers(seed uint64, dur time.Duration) (layerResult, error) {
	in, err := genHTTPInputs(seed)
	if err != nil {
		return layerResult{}, err
	}
	m := map[string]float64{}
	rs, err := replaySplit(dur, m, func(d time.Duration, traced bool) (replayStats, error) {
		return httpReplay(in, d, traced, m)
	})
	if err != nil {
		return layerResult{}, err
	}
	va, vc, err := httpVirtual(in, m)
	if err != nil {
		return layerResult{}, err
	}
	return layerResult{attempted: rs.attempted + va, correct: rs.correct + vc, metrics: m, bufs: rs.bufs}, nil
}

// httpReplay composes the httpd front's layers from their public calls
// — ReadRequestHead, Server.ServeBatch, WriteHTTPResponse — one server
// per connection, and checks every rendered reply.
func httpReplay(in httpInputs, dur time.Duration, traced bool, m map[string]float64) (replayStats, error) {
	servers := make([]*httpServer, nConns)
	for c := range servers {
		var err error
		if servers[c], err = newHTTPServer(in.pages); err != nil {
			return replayStats{}, err
		}
	}
	bufs := newBufs(nConns, traced)
	counts := make([][2]int64, nConns)
	errs := make([]error, nConns)
	deadline := time.Now().Add(dur)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, hs := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, ops := bufs[c], in.ops[c]
			rd := bytes.NewReader(nil)
			r := bufio.NewReader(rd)
			var out bytes.Buffer
			batch := make([]httpd.BatchRequest, 1)
			for pos, next := 0, int64(0); time.Now().Before(deadline); pos, next = (pos+1)%len(ops), next+1 {
				op := &ops[pos]
				id := int64(c)<<40 | next
				root := buf.begin(spRequest, -1, id)
				rd.Reset(op.raw)
				r.Reset(rd)
				sp := buf.begin(spReadHead, root, id)
				raw, err := httpd.ReadRequestHead(r)
				buf.end(sp)
				if err != nil {
					errs[c] = err
					return
				}
				batch[0] = httpd.BatchRequest{ClientID: c + 1, Raw: raw}
				sp = buf.begin(spServeBatch, root, id)
				resps := hs.srv.ServeBatch(batch)
				buf.end(sp)
				out.Reset()
				sp = buf.begin(spWriteHTTP, root, id)
				httpd.WriteHTTPResponse(&out, resps[0])
				buf.end(sp)
				buf.end(root)
				counts[c][0]++
				if in.exp.check(op, out.Bytes()) {
					counts[c][1]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return replayStats{}, err
	}
	var rs replayStats
	for _, n := range counts {
		rs.attempted += n[0]
		rs.correct += n[1]
	}
	rs.rps = float64(rs.correct) / elapsed.Seconds()
	rs.bufs = bufs
	if traced {
		agg := aggregate(bufs)
		m["httpd.read_head_ns"] = ratio(agg[spReadHead].self, agg[spReadHead].count)
		m["httpd.serve_ns"] = ratio(agg[spServeBatch].self, agg[spServeBatch].count)
		m["httpd.write_response_ns"] = ratio(agg[spWriteHTTP].self, agg[spWriteHTTP].count)
	}
	return rs, nil
}

// httpVirtual replays every connection's ring in a fixed order: round
// i serves request i of each connection as one ServeBatch, on the two
// servers in turn. It records the virtual counts and the share of
// exploits contained.
func httpVirtual(in httpInputs, m map[string]float64) (attempted, correct int64, err error) {
	servers := make([]*httpServer, nShards)
	before := make([]sysCounts, nShards)
	for i := range servers {
		if servers[i], err = newHTTPServer(in.pages); err != nil {
			return 0, 0, err
		}
		before[i] = snapSys(servers[i].sys, servers[i].ec, httpFirstWorkerUDI, servers[i].srv.Workers())
	}
	var exploits, contained uint64
	var out bytes.Buffer
	batch := make([]httpd.BatchRequest, nConns)
	for i := 0; i < httpRing; i++ {
		for c := range batch {
			batch[c] = httpd.BatchRequest{ClientID: c + 1, Raw: in.ops[c][i].raw}
		}
		for c, resp := range servers[i%nShards].srv.ServeBatch(batch) {
			op := &in.ops[c][i]
			if op.exploit {
				exploits++
				if resp.Contained {
					contained++
				}
			}
			out.Reset()
			httpd.WriteHTTPResponse(&out, resp)
			attempted++
			if in.exp.check(op, out.Bytes()) {
				correct++
			}
		}
	}
	var tot sysCounts
	for i, s := range servers {
		tot.addDelta(snapSys(s.sys, s.ec, httpFirstWorkerUDI, s.srv.Workers()), before[i])
	}
	tot.virtualMetrics(m, uint64(attempted))
	m["httpd.contained_frac"] = ratio(contained, exploits)
	return attempted, correct, nil
}

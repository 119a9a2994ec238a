package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The traced run (--trace 1) has three parts:
//
//  1. the end-to-end serving run, untraced and under the CPU profiler,
//     for the module shares and the GC's share of CPU;
//  2. a timed replay that composes the workload's layers from their
//     public entry points, once untraced and once recording a span
//     around every call, for host time per layer;
//  3. a virtual pass over a fixed prefix of the same stream with fixed
//     request order and batch boundaries, for the virtual-cycle counts,
//     which therefore repeat exactly for a seed.

// perLayer lists every per-layer metric and its unit. Each name's
// comment says which end-to-end metric it should move, on which
// workload; workloads that do not exercise a layer report 0 for it.
var perLayer = []metricDef{
	// throughput_rps and latency_p50_us on kv-e1; via batch_mean,
	// throughput_rps on kv-durable-pipelined.
	{"submit.queue_wait_ns", "ns"},
	{"submit.resolve_wait_ns", "ns"},
	{"submit.batch_mean", "count"},
	{"submit.reject_frac", "ratio"},
	// cpu_us_per_req on kv-e1 (diluted on kv-durable-pipelined).
	{"kvstore.read_command_ns", "ns"},
	{"kvstore.write_response_ns", "ns"},
	{"kvstore.handle_ns", "ns"},
	{"kvstore.allocs_per_req", "count"},
	// throughput_rps on kv-durable-pipelined.
	{"kvstore.cache_hit_ratio", "ratio"},
	{"kvstore.evictions_per_req", "count"},
	// latency_p99_us and throughput_rps on kv-durable-pipelined.
	{"persist.append_ns", "ns"},
	{"persist.appends_per_req", "count"},
	{"persist.snapshot_ns", "ns"},
	{"persist.snapshot_pages", "count"},
	{"persist.write_amp", "ratio"},
	// latency_p50_us on kv-durable-pipelined.
	{"gateway.admit_ns", "ns"},
	{"gateway.reject_frac", "ratio"},
	// throughput_rps on kv-routed.
	{"cluster.route_ns", "ns"},
	{"cluster.replica_applies_per_req", "count"},
	// throughput_rps on http-attack.
	{"httpd.read_head_ns", "ns"},
	{"httpd.serve_ns", "ns"},
	{"httpd.write_response_ns", "ns"},
	{"httpd.contained_frac", "ratio"},
	{"core.rewinds_per_req", "count"},
	{"core.rewind_vcycles", "cycles"},
	// The paper's virtual-cycle currency: a host-side change leaves
	// these unchanged.
	{"core.enters_per_req", "count"},
	{"core.domain_vcycles_per_req", "cycles"},
	{"kvstore.vcycles_per_req", "cycles"},
	{"mem.tlb_hit_ratio", "ratio"},
	{"mem.bytes_moved_per_req", "bytes"},
	// latency_p99_us everywhere.
	{"runtime.gc_cpu_frac", "ratio"},
	// Profile self-time shares of layers with no public boundary.
	{"cpu_share.core", "ratio"},
	{"cpu_share.mem", "ratio"},
	{"cpu_share.alloc", "ratio"},
	{"cpu_share.runtime_gc", "ratio"},
	{"cpu_share.runtime_sched", "ratio"},
	// Throughput of the serving run, of the untraced replay and of the
	// traced replay: the last two give the tracing overhead.
	{"trace.untraced_rps", "req/s"},
	{"trace.replay_untraced_rps", "req/s"},
	{"trace.replay_traced_rps", "req/s"},
}

// layerResult is the outcome of a workload's replay and virtual pass.
type layerResult struct {
	attempted, correct int64
	metrics            map[string]float64
	bufs               []*spanBuf // the traced replay's spans
}

// ratio returns a/b, or 0 when b is 0.
func ratio[A, B int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// eventCounter is a trace.Recorder that counts domain entries and
// rewinds, and the virtual cycles spent between a domain's Enter and
// its Exit or Rewind.
type eventCounter struct {
	hz       uint64
	enters   uint64
	rewinds  uint64
	inDomain uint64
	entered  map[int]time.Duration
}

func newEventCounter(sys *core.System) *eventCounter {
	return &eventCounter{hz: sys.Clock().Model().CPUHz, entered: map[int]time.Duration{}}
}

// Record implements trace.Recorder.
func (e *eventCounter) Record(ev trace.Event) {
	switch ev.Kind {
	case trace.KindEnter:
		e.enters++
		e.entered[ev.UDI] = ev.At
	case trace.KindExit, trace.KindRewind:
		if ev.Kind == trace.KindRewind {
			e.rewinds++
		}
		if at, ok := e.entered[ev.UDI]; ok {
			e.inDomain += vclock.DurationToCycles(ev.At-at, e.hz)
			delete(e.entered, ev.UDI)
		}
	}
}

// sysCounts are one simulated machine's virtual counters.
type sysCounts struct {
	cycles, enters, rewinds, inDomain, rewindCycles uint64
	mem                                             mem.Stats
}

func snapSys(sys *core.System, ec *eventCounter, firstWorker core.UDI, workers int) sysCounts {
	c := sysCounts{cycles: sys.Clock().Cycles(), enters: ec.enters, rewinds: ec.rewinds, inDomain: ec.inDomain, mem: sys.Mem().Stats()}
	for i := 0; i < workers; i++ {
		if rc, err := sys.RewindCycles(firstWorker + core.UDI(i)); err == nil {
			c.rewindCycles += rc
		}
	}
	return c
}

// addDelta adds after-before to c.
func (c *sysCounts) addDelta(after, before sysCounts) {
	c.cycles += after.cycles - before.cycles
	c.enters += after.enters - before.enters
	c.rewinds += after.rewinds - before.rewinds
	c.inDomain += after.inDomain - before.inDomain
	c.rewindCycles += after.rewindCycles - before.rewindCycles
	c.mem.BytesRead += after.mem.BytesRead - before.mem.BytesRead
	c.mem.BytesWritten += after.mem.BytesWritten - before.mem.BytesWritten
	c.mem.TLBHits += after.mem.TLBHits - before.mem.TLBHits
	c.mem.TLBMisses += after.mem.TLBMisses - before.mem.TLBMisses
}

// virtualMetrics renders the virtual counters of reqs requests.
func (c sysCounts) virtualMetrics(m map[string]float64, reqs uint64) {
	m["core.enters_per_req"] = ratio(c.enters, reqs)
	m["core.domain_vcycles_per_req"] = ratio(c.inDomain, reqs)
	m["core.rewinds_per_req"] = ratio(c.rewinds, reqs)
	m["core.rewind_vcycles"] = ratio(c.rewindCycles, c.rewinds)
	m["mem.tlb_hit_ratio"] = ratio(c.mem.TLBHits, c.mem.TLBHits+c.mem.TLBMisses)
	m["mem.bytes_moved_per_req"] = ratio(c.mem.BytesRead+c.mem.BytesWritten, reqs)
}

// allocsSince returns the heap allocations made since ms0.
func allocsSince(ms0 *runtime.MemStats) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - ms0.Mallocs
}

// cpuClasses returns the runtime's GC and total CPU-seconds estimates.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// replaySplit runs a workload's timed replay twice, untraced and traced,
// each for half of dur, and records both throughputs.
func replaySplit(dur time.Duration, m map[string]float64, pass func(d time.Duration, traced bool) (replayStats, error)) (replayStats, error) {
	plain, err := pass(dur/2, false)
	if err != nil {
		return replayStats{}, err
	}
	tr, err := pass(dur/2, true)
	if err != nil {
		return replayStats{}, err
	}
	m["trace.replay_untraced_rps"] = plain.rps
	m["trace.replay_traced_rps"] = tr.rps
	tr.attempted += plain.attempted
	tr.correct += plain.correct
	return tr, nil
}

// replayStats is the outcome of one timed replay.
type replayStats struct {
	attempted, correct int64
	rps                float64
	bufs               []*spanBuf
}

// newBufs returns n span buffers sharing one epoch, or n nil buffers
// (which record nothing) when untraced.
func newBufs(n int, traced bool) []*spanBuf {
	bufs := make([]*spanBuf, n)
	if traced {
		epoch := time.Now()
		for i := range bufs {
			bufs[i] = newSpanBuf(epoch)
		}
	}
	return bufs
}

func runTraced(w *workloadDef, seed uint64, dur time.Duration, dir string) (result, map[string]any, error) {
	half := dur / 2
	t, err := w.build(seed, filepath.Join(dir, "serve"))
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	profPath := filepath.Join(".bench_build", "cpu-"+w.name+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		_ = t.close()
		return result{}, nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		_ = t.close()
		return result{}, nil, err
	}
	gc0, all0 := cpuClasses()
	st, err := serve(t, warmFor(half), half)
	gc1, all1 := cpuClasses()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if cerr := t.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return result{}, nil, fmt.Errorf("profile: %w", err)
	}

	lr, err := w.layers(seed, dir, half)
	if err != nil {
		return result{}, nil, fmt.Errorf("replay: %w", err)
	}
	values := lr.metrics
	for k, v := range shares {
		values["cpu_share."+k] = v
	}
	values["runtime.gc_cpu_frac"] = ratio(gc1-gc0, all1-all0)
	values["trace.untraced_rps"] = median(st.winRPS)
	m, err := renderMetrics(perLayer, values)
	if err != nil {
		return result{}, nil, err
	}
	tracePath := filepath.Join(".bench_build", "trace-"+w.name+".tsv")
	if err := writeSpans(tracePath, lr.bufs); err != nil {
		return result{}, nil, fmt.Errorf("write trace: %w", err)
	}
	attempted := st.attempted + lr.attempted
	correct := st.correct + lr.correct
	res := result{
		Correct:   attempted == correct && len(st.errs) == 0,
		Attempted: attempted,
		Failed:    attempted - correct,
		Metrics:   m,
	}
	detail := map[string]any{"cpu_profile": profPath, "trace": tracePath, "errors": errStrings(st.errs)}
	return res, detail, nil
}

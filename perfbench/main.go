// Command perfbench is the repository's benchmark. It drives one of four
// seeded serving workloads through the product's own fronts over
// in-memory connections, checks every reply, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced replay
// (--trace 1) as the last line of its output:
//
//	bash perfbench/run.sh --workload kv-e1 --seed 1 --seconds 10 --trace 0
//
// Load comes from nConns closed-loop clients in this process. Inputs are
// generated from the seed before timing starts; the program under test
// receives only the generated bytes.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// build constructs the server, preloads it and generates the
	// clients' inputs: everything before the first request.
	build func(seed uint64, dir string) (target, error)
	// layers runs the traced per-layer replay of the same stream.
	layers func(seed uint64, dir string, dur time.Duration) (layerResult, error)
}

var (
	// kvE1Spec is the paper's E1 steady state: a read-heavy Zipf mix
	// whose 1.3 MB data set fits the cache, one request in flight.
	kvE1Spec = kvSpec{keys: 10_000, getFrac: 0.9, valueSize: 128, burst: 1, ring: 1 << 16, preloadRanks: 5_000}
	// kvDurableSpec is write-heavy, pipelined, and 4x the cache. Its
	// hottest keys fill the cache before the first request, so the run
	// measures eviction and full-heap snapshots from the start instead
	// of a cache filling up. A ring of 1<<16 requests per connection
	// sets enough distinct keys to keep evicting when it repeats.
	kvDurableSpec = kvSpec{keys: 65_536, getFrac: 0.5, valueSize: 1024, burst: 16, ring: 1 << 16, preloadRanks: 8_192, evictable: true}

	kvE1Config      = kvConfig{spec: kvE1Spec, capacity: 64 << 20}
	kvDurableConfig = kvConfig{spec: kvDurableSpec, capacity: 16 << 20, durable: true, gateway: true}
)

var workloads = []workloadDef{
	{
		name:  "kv-e1",
		build: func(seed uint64, dir string) (target, error) { return buildKV(kvE1Config, seed, dir) },
		layers: func(seed uint64, dir string, d time.Duration) (layerResult, error) {
			return kvLayers(kvE1Config, seed, dir, d)
		},
	},
	{
		name:  "kv-durable-pipelined",
		build: func(seed uint64, dir string) (target, error) { return buildKV(kvDurableConfig, seed, dir) },
		layers: func(seed uint64, dir string, d time.Duration) (layerResult, error) {
			return kvLayers(kvDurableConfig, seed, dir, d)
		},
	},
	{
		name:   "http-attack",
		build:  func(seed uint64, _ string) (target, error) { return buildHTTP(seed) },
		layers: func(seed uint64, _ string, d time.Duration) (layerResult, error) { return httpLayers(seed, d) },
	},
	{
		name:  "kv-routed",
		build: func(seed uint64, _ string) (target, error) { return buildRouted(kvE1Spec, seed) },
		layers: func(seed uint64, _ string, d time.Duration) (layerResult, error) {
			return routedLayers(kvE1Spec, seed, d)
		},
	},
}

// Repetitions inside one run: set-up and recovery are short, so each is
// repeated at least this often and for at least this long, and the
// median is reported. Recovery gets the longer span: its spread is
// gated, set-up's only its median.
const (
	setupReps    = 5
	setupSpan    = 250 * time.Millisecond
	recoveryReps = 15
	recoverySpan = time.Second
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system would see.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"}, // correct replies per wall-clock second
	{"latency_p50_us", "us"},    // from a burst's flush to each reply
	{"latency_p99_us", "us"},
	{"correct_frac", "ratio"}, // correct replies and restart checks over those attempted
	{"cpu_us_per_req", "us"},  // process user+sys CPU per reply: the energy proxy
	{"heap_mb", "MiB"},        // live heap after a forced GC, clients' inputs dropped
	{"setup_s", "s"},          // construction, preload, data-dir open, input generation
	{"recovery_s", "s"},       // restart after the drain until the drained state is back
}

// renderMetrics pairs values with their units from table; a listed
// metric without a value reads 0, an unlisted value is an error.
func renderMetrics(table []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(table))
	for _, d := range table {
		out[d.name] = metric{values[d.name], d.unit}
	}
	for k := range values {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("unlisted metric %q", k)
		}
	}
	return out, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced replay")
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: working dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	dur := time.Duration(*seconds * float64(time.Second))
	emit(map[string]any{"provenance": provenance(*name, *seed, *seconds, *traced)})
	var res result
	var detail map[string]any
	if *traced == 1 {
		res, detail, err = runTraced(w, *seed, dur, dir)
	} else {
		res, detail, err = runE2E(w, *seed, dur, dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	emit(map[string]any{"detail": detail})
	emit(res)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain values are emitted
	}
	fmt.Println(string(b))
}

// provenance records where and how a result was measured.
func provenance(name string, seed uint64, seconds float64, traced int) map[string]any {
	return map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       traced,
		"connections": nConns,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// warmFor is the unmeasured warm-up before a timed run.
func warmFor(dur time.Duration) time.Duration {
	return min(time.Second, dur/5)
}

// setUp builds the workload repeatedly (see setupSpan), each time in a
// fresh directory, keeps the last target and returns every set-up time.
func setUp(w *workloadDef, seed uint64, dir string) (target, []float64, error) {
	var t target
	var secs []float64
	for i, start := 0, time.Now(); i < setupReps || time.Since(start) < setupSpan; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, nil, err
			}
		}
		debug.FreeOSMemory() // same heap and page faults for every set-up
		t0 := time.Now()
		var err error
		t, err = w.build(seed, filepath.Join(dir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return t, secs, nil
}

// serve connects the clients, runs them and stops the server.
func serve(t target, warm, dur time.Duration) (runStats, error) {
	clients, err := t.connect()
	if err != nil {
		return runStats{}, err
	}
	st := runClosedLoop(clients, warm, dur)
	for _, d := range clients {
		if err := d.close(); err != nil {
			st.errs = append(st.errs, err)
		}
	}
	if err := t.stop(); err != nil {
		return runStats{}, fmt.Errorf("stop serving: %w", err)
	}
	if st.attempted == 0 {
		return runStats{}, errors.Join(append(st.errs, errors.New("no request completed"))...)
	}
	return st, nil
}

func runE2E(w *workloadDef, seed uint64, dur time.Duration, dir string) (result, map[string]any, error) {
	t, setups, err := setUp(w, seed, dir)
	if err != nil {
		return result{}, nil, err
	}
	defer t.close()
	st, err := serve(t, warmFor(dur), dur)
	if err != nil {
		return result{}, nil, err
	}
	p50, p99 := percentile(st.lat, 0.50), percentile(st.lat, 0.99)
	completed := int64(len(st.lat))
	st.lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	recs, mismatches, err := t.recover(recoveryReps)
	if err != nil {
		return result{}, nil, fmt.Errorf("recovery: %w", err)
	}
	// Every restart is a check: a state mismatch counts as an error.
	attempted := st.attempted + int64(len(recs))
	correct := st.correct + int64(len(recs)-mismatches)
	m, err := renderMetrics(endToEnd, map[string]float64{
		"throughput_rps": median(st.winRPS),
		"latency_p50_us": float64(p50) / 1e3,
		"latency_p99_us": float64(p99) / 1e3,
		"correct_frac":   float64(correct) / float64(attempted),
		"cpu_us_per_req": float64(st.cpu) / 1e3 / float64(max(completed, 1)),
		"heap_mb":        float64(ms.HeapAlloc) / (1 << 20),
		"setup_s":        median(setups),
		"recovery_s":     median(recs),
	})
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: correct == attempted && len(st.errs) == 0, Attempted: attempted, Failed: attempted - correct, Metrics: m}
	detail := map[string]any{
		"latency_samples":    completed,
		"latency_beyond_p99": completed - int64(float64(completed)*0.99+0.5),
		"measured_s":         st.elapsed.Seconds(),
		"mean_rps":           float64(st.correct) / st.elapsed.Seconds(),
		"window_rps":         st.winRPS,
		"setup_runs_s":       setups,
		"recovery_runs_s":    recs,
		"recovery_mismatch":  mismatches,
		"errors":             errStrings(st.errs),
	}
	return res, detail, nil
}

func errStrings(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

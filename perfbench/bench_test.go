package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// corruptReader upcases every nth lowercase letter in l..x it passes on.
// Those letters occur in stored values but never in the protocol's
// framing (keywords are upper case, keys are "key-" and digits), so
// the reply stream stays parseable while some values come back wrong.
type corruptReader struct {
	r    io.Reader
	n, i int
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for j := 0; j < n; j++ {
		if p[j] >= 'l' && p[j] <= 'x' {
			if c.i++; c.i%c.n == 0 {
				p[j] -= 'a' - 'A'
			}
		}
	}
	return n, err
}

// runKVE1 serves kv-e1 briefly, optionally corrupting replies on their
// way to the clients, and returns the run's outcome.
func runKVE1(t *testing.T, corrupt bool) runStats {
	t.Helper()
	tg, err := buildKV(kvE1Config, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	clients, err := tg.connect()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		for _, d := range clients {
			c := d.(*kvConn)
			c.r = bufio.NewReaderSize(&corruptReader{r: c.conn, n: 997}, 64<<10)
		}
	}
	st := runClosedLoop(clients, 50*time.Millisecond, 300*time.Millisecond)
	for _, d := range clients {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}
	if err := tg.stop(); err != nil {
		t.Fatal(err)
	}
	if len(st.errs) > 0 {
		t.Fatalf("client errors: %v", st.errs)
	}
	if st.attempted == 0 {
		t.Fatal("no request completed")
	}
	return st
}

func TestCorruptedRepliesCountAsErrors(t *testing.T) {
	clean := runKVE1(t, false)
	if clean.correct != clean.attempted {
		t.Fatalf("clean run: %d of %d correct", clean.correct, clean.attempted)
	}
	bad := runKVE1(t, true)
	if bad.correct >= bad.attempted {
		t.Fatalf("corrupted run: all %d replies judged correct", bad.attempted)
	}
}

// virtualNames are the per-layer metrics the virtual pass computes.
var virtualNames = []string{
	"core.enters_per_req", "core.domain_vcycles_per_req", "core.rewinds_per_req", "core.rewind_vcycles",
	"kvstore.vcycles_per_req", "mem.tlb_hit_ratio", "mem.bytes_moved_per_req", "httpd.contained_frac",
	"kvstore.cache_hit_ratio", "kvstore.evictions_per_req", "persist.appends_per_req",
	"persist.snapshot_pages", "persist.write_amp", "cluster.replica_applies_per_req",
}

func TestVirtualCountsRepeat(t *testing.T) {
	passes := map[string]func(dir string, m map[string]float64) (int64, int64, error){
		"kv-e1": func(dir string, m map[string]float64) (int64, int64, error) {
			in, err := genKVInputs(kvE1Spec, 3)
			if err != nil {
				return 0, 0, err
			}
			return kvVirtual(kvE1Config, in, dir, m)
		},
		"kv-durable-pipelined": func(dir string, m map[string]float64) (int64, int64, error) {
			in, err := genKVInputs(kvDurableSpec, 3)
			if err != nil {
				return 0, 0, err
			}
			return kvVirtual(kvDurableConfig, in, dir, m)
		},
		"http-attack": func(_ string, m map[string]float64) (int64, int64, error) {
			in, err := genHTTPInputs(3)
			if err != nil {
				return 0, 0, err
			}
			return httpVirtual(in, m)
		},
		"kv-routed": func(_ string, m map[string]float64) (int64, int64, error) {
			in, err := genKVInputs(kvE1Spec, 3)
			if err != nil {
				return 0, 0, err
			}
			return routedVirtual(in, m)
		},
	}
	for name, pass := range passes {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				runs[i] = map[string]float64{}
				attempted, correct, err := pass(t.TempDir(), runs[i])
				if err != nil {
					t.Fatal(err)
				}
				if attempted == 0 || correct != attempted {
					t.Fatalf("%d of %d replies correct", correct, attempted)
				}
			}
			for _, k := range virtualNames {
				if runs[0][k] != runs[1][k] {
					t.Errorf("%s: %v then %v", k, runs[0][k], runs[1][k])
				}
			}
			if name == "http-attack" && runs[0]["httpd.contained_frac"] != 1 {
				t.Errorf("contained_frac = %v, want 1", runs[0]["httpd.contained_frac"])
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the code", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

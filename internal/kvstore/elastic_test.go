package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/submit"
	"repro/internal/workload"
)

// TestResizeDurableAckedWrites is the durability regression for elastic
// shrink: while concurrent clients SET unique keys through the batched
// submission layer and a resizer cycles the parser worker-domain count,
// a graceful drain fires mid-run. Every batch an acked write rode in
// WAL-commits before its queue closes, so after reopening the stores
// from disk exactly the acked keys are present — none lost, and no
// shed (unacked) write surviving.
func TestResizeDurableAckedWrites(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode:    ModeSDRaD,
		Persist: &PersistConfig{Dir: dir, Fsync: false, SnapshotEvery: 8},
	}
	p, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchedNetServerPool(p, nil, 256, 8)
	if err != nil {
		t.Fatal(err)
	}

	const producers, per = 6, 60
	type kv struct{ key, val string }
	var mu sync.Mutex
	acked := make(map[string]string)
	shed := make(map[string]bool)

	stopResize := make(chan struct{})
	var resizeWG sync.WaitGroup
	resizeWG.Add(1)
	go func() {
		defer resizeWG.Done()
		sizes := []int{4, 1, 6, 2, 3}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			if rerr := srv.ResizeWorkers(sizes[i%len(sizes)]); rerr != nil {
				if _, ok := lifecycle.IsLifecycle(rerr); !ok {
					t.Errorf("ResizeWorkers(%d): %v", sizes[i%len(sizes)], rerr)
				}
			}
		}
	}()

	var submitted int64
	var subMu sync.Mutex
	var drainOnce sync.Once
	drainDone := make(chan struct{})
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w := kv{key: fmt.Sprintf("k-%d-%03d", pr, i), val: fmt.Sprintf("v-%d-%03d", pr, i)}
				subMu.Lock()
				submitted++
				fireDrain := submitted == producers*per/2
				subMu.Unlock()
				if fireDrain {
					// Mid-run graceful drain: queues flush (acked batches
					// WAL-commit), then the shards take a final snapshot
					// and release the stores.
					go drainOnce.Do(func() {
						defer close(drainDone)
						if derr := srv.Drain(); derr != nil {
							t.Errorf("Drain: %v", derr)
						}
					})
				}
				resp := srv.handle(context.Background(), pr, workload.Request{
					Op: workload.OpSet, Key: w.key, Value: []byte(w.val),
				})
				mu.Lock()
				if resp.OK && resp.Err == nil {
					acked[w.key] = w.val
				} else {
					shed[w.key] = true
				}
				mu.Unlock()
			}
		}(pr)
	}
	wg.Wait()
	close(stopResize)
	resizeWG.Wait()
	<-drainDone
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(acked) == 0 || len(shed) == 0 {
		t.Fatalf("degenerate mix: acked=%d shed=%d (want both non-zero)", len(acked), len(shed))
	}

	// Reopen the per-shard stores and check exact ack alignment.
	p2, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if cerr := p2.Close(); cerr != nil {
			t.Errorf("close reopened pool: %v", cerr)
		}
	}()
	for key, val := range acked {
		resp := p2.Handle(0, workload.Request{Op: workload.OpGet, Key: key})
		if !resp.OK || resp.Err != nil {
			t.Fatalf("acked key %q lost after recovery: %+v", key, resp)
		}
		if !bytes.Equal(resp.Value, []byte(val)) {
			t.Fatalf("acked key %q = %q after recovery, want %q", key, resp.Value, val)
		}
	}
	for key := range shed {
		if resp := p2.Handle(0, workload.Request{Op: workload.OpGet, Key: key}); resp.OK && resp.Err == nil {
			t.Fatalf("shed key %q survived recovery with value %q", key, resp.Value)
		}
	}
}

// TestElasticGrowShrinkDrain drives the batched front's elastic
// controller end to end: concurrent clients back the shard queues up
// until the parser domains grow to max, a serial trickle lets them
// shrink back to min, and a second concurrent burst races a mid-run
// Drain. Every request is either acked or refused with a typed error
// (queues closed, shard drained), and the drained server refuses
// resizes.
func TestElasticGrowShrinkDrain(t *testing.T) {
	p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchedNetServerPool(p, nil, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Errorf("Close: %v", cerr)
		}
	}()
	if err := srv.EnableElastic(1, 4); err != nil {
		t.Fatal(err)
	}

	// burst runs clients concurrent request streams of per SETs each;
	// mid, when set, runs once half of them were sent.
	var acked, refused int
	burst := func(round, clients, per int, mid func()) {
		var mu sync.Mutex
		var once sync.Once
		var sent int
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					mu.Lock()
					sent++
					half := sent == clients*per/2
					mu.Unlock()
					if half && mid != nil {
						once.Do(mid)
					}
					resp := srv.handle(context.Background(), c, setReq(fmt.Sprintf("k-%d-%d-%d", round, c, i), "v"))
					mu.Lock()
					switch {
					case resp.OK && resp.Err == nil:
						acked++
					case errors.Is(resp.Err, submit.ErrClosed) || errors.Is(resp.Err, ErrDrained):
						refused++
					default:
						t.Errorf("request %d/%d: neither acked nor refused: %+v", c, i, resp)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
	}

	for round := 0; srv.ElasticStats().MaxWorkers < 4; round++ {
		if round == 50 {
			t.Fatalf("domains never grew to 4 under load: %+v", srv.ElasticStats())
		}
		burst(round, 16, 8, nil)
	}
	for i := 0; srv.ElasticStats().Workers > 1; i++ {
		if i == 2000 {
			t.Fatalf("domains never shrank back to 1: %+v", srv.ElasticStats())
		}
		if resp := srv.handle(context.Background(), 0, setReq("trickle", "v")); !resp.OK {
			t.Fatalf("trickle request: %+v", resp)
		}
	}
	if st := srv.ElasticStats(); st.Grown < 2 || st.Shrunk < 2 {
		t.Fatalf("stats %+v, want both directions exercised", st)
	}
	if refused != 0 {
		t.Fatalf("%d requests refused before the drain", refused)
	}

	drained := make(chan error, 1)
	burst(-1, 16, 8, func() { go func() { drained <- srv.Drain() }() })
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp := srv.handle(context.Background(), 0, setReq("late", "v")); !errors.Is(resp.Err, submit.ErrClosed) {
		t.Errorf("request after the drain: %+v, want ErrClosed", resp)
	}
	t.Logf("acked %d, refused %d, %+v", acked, refused, srv.ElasticStats())
	if _, ok := lifecycle.IsLifecycle(srv.ResizeWorkers(2)); !ok {
		t.Error("drained server accepted a resize")
	}
}

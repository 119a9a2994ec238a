package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/submit"
)

// rig is a batched front over one queue whose executor holds the first
// task until release closes, so every later submission stays queued:
// the queue backlog is exactly the number of submissions, and no
// executed batch runs the elastic hook behind the test's back. Its
// backend records the domain count every resize sets.
type rig struct {
	f       *Front
	started chan struct{}
	release chan struct{}

	mu  sync.Mutex
	cur int
}

func newRig(t *testing.T, maxInflight int) *rig {
	t.Helper()
	r := &rig{started: make(chan struct{}, 1), release: make(chan struct{}), cur: 1}
	f, err := NewBatched("serve.Test", nil, Backend{
		Workers:    1,
		MaxDomains: 12,
		Resize: func(n int) error {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.cur = n
			return nil
		},
		Domains: func() int {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.cur
		},
	}, maxInflight, 1, func(_ int, tasks []*submit.Task) {
		select {
		case r.started <- struct{}{}:
		default:
		}
		<-r.release
		for _, task := range tasks {
			task.Resolve(nil)
		}
	})
	if err != nil {
		t.Fatalf("NewBatched: %v", err)
	}
	r.f = Serving(f)
	t.Cleanup(func() {
		select {
		case <-r.release:
		default:
			close(r.release)
		}
		if err := r.f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return r
}

// backlog submits n tasks, which all stay queued or executing.
func (r *rig) backlog(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := r.f.Submit(0, context.Background(), nil); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

// eval runs n elastic evaluations.
func (r *rig) eval(n int) {
	for i := 0; i < n; i++ {
		r.f.maybeScale()
	}
}

func (r *rig) domains() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// TestElasticController pins the front's elastic policy against a known
// queue backlog: backlog >= 2 x live domains per worker doubles the
// domain count (capped at max), exactly shrinkIdleEvals consecutive
// evaluations with backlog <= domains halve it (floored at min), and a
// backlog between the two thresholds resets the idle count.
func TestElasticController(t *testing.T) {
	t.Run("grow doubles and caps at max", func(t *testing.T) {
		r := newRig(t, 64)
		if err := r.f.EnableElastic(1, 6); err != nil {
			t.Fatal(err)
		}
		r.backlog(t, 4)
		for _, want := range []int{2, 4, 4} {
			r.eval(1)
			if got := r.domains(); got != want {
				t.Fatalf("backlog 4: domains %d, want %d", got, want)
			}
		}
		r.backlog(t, 8)
		r.eval(2)
		if got := r.domains(); got != 6 {
			t.Fatalf("backlog 12: domains %d, want capped at 6", got)
		}
		if st := r.f.ElasticStats(); st.Grown != 3 || st.Shrunk != 0 || st.MaxWorkers != 6 || st.Workers != 6 {
			t.Fatalf("stats %+v, want 3 grown, max 6", st)
		}
	})
	t.Run("shrink after exactly 16 idle evaluations", func(t *testing.T) {
		r := newRig(t, 64)
		if err := r.f.EnableElastic(1, 8); err != nil {
			t.Fatal(err)
		}
		if err := r.f.ResizeWorkers(8); err != nil {
			t.Fatal(err)
		}
		r.backlog(t, 8)
		r.eval(shrinkIdleEvals - 1)
		if got := r.domains(); got != 8 {
			t.Fatalf("after %d idle evaluations: domains %d, want 8", shrinkIdleEvals-1, got)
		}
		r.eval(1)
		if got := r.domains(); got != 4 {
			t.Fatalf("after %d idle evaluations: domains %d, want 4", shrinkIdleEvals, got)
		}
	})
	t.Run("shrink floors at min", func(t *testing.T) {
		r := newRig(t, 64)
		if err := r.f.EnableElastic(3, 8); err != nil {
			t.Fatal(err)
		}
		if err := r.f.ResizeWorkers(4); err != nil {
			t.Fatal(err)
		}
		r.eval(shrinkIdleEvals)
		if got := r.domains(); got != 3 {
			t.Fatalf("domains %d, want floored at 3", got)
		}
		r.eval(2 * shrinkIdleEvals)
		if st := r.f.ElasticStats(); st.Shrunk != 1 || st.Workers != 3 {
			t.Fatalf("stats %+v, want one shrink and 3 domains at min", st)
		}
	})
	t.Run("between thresholds resets idle count", func(t *testing.T) {
		r := newRig(t, 64)
		if err := r.f.EnableElastic(1, 8); err != nil {
			t.Fatal(err)
		}
		r.backlog(t, 5)
		if err := r.f.ResizeWorkers(6); err != nil {
			t.Fatal(err)
		}
		r.eval(shrinkIdleEvals - 1) // 5 <= 6: idle
		if err := r.f.ResizeWorkers(4); err != nil {
			t.Fatal(err)
		}
		r.eval(1) // 4 < 5 < 8: between, resets
		if err := r.f.ResizeWorkers(6); err != nil {
			t.Fatal(err)
		}
		r.eval(shrinkIdleEvals - 1)
		if got := r.domains(); got != 6 {
			t.Fatalf("idle count survived the reset: domains %d, want 6", got)
		}
		r.eval(1)
		if got := r.domains(); got != 3 {
			t.Fatalf("domains %d, want 3 after %d idle evaluations", got, shrinkIdleEvals)
		}
	})
}

// TestElasticEnableRefusals pins what EnableElastic refuses: bounds
// outside [1, MaxDomains], a serial front, and a draining front (with a
// typed *LifecycleError).
func TestElasticEnableRefusals(t *testing.T) {
	r := newRig(t, 64)
	for _, b := range [][2]int{{0, 4}, {3, 2}, {1, 13}} {
		if err := r.f.EnableElastic(b[0], b[1]); err == nil {
			t.Errorf("EnableElastic(%d, %d) accepted out-of-range bounds", b[0], b[1])
		}
	}
	if st := r.f.ElasticStats(); st != (ElasticStats{}) {
		t.Errorf("refused EnableElastic left stats %+v", st)
	}

	serial := Serving(New("serve.Test", nil, Backend{Workers: 1, MaxDomains: 12, Resize: func(int) error { return nil }}))
	if err := serial.EnableElastic(1, 4); err == nil {
		t.Error("EnableElastic accepted a serial front")
	}
	if err := serial.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	err := serial.EnableElastic(1, 4)
	if le, ok := lifecycle.IsLifecycle(err); !ok || le.From != lifecycle.StateDraining {
		t.Errorf("EnableElastic while draining = %v, want *LifecycleError from Draining", err)
	}
}

// TestSubmitMapsOverloadAndClose pins the shared future->error mapping
// both servers render: a full queue sheds with the configured-depth
// retry hint (still classifiable as overload), and an admitted request
// whose queues close before it executes resolves with ErrClosed.
func TestSubmitMapsOverloadAndClose(t *testing.T) {
	r := newRig(t, 1) // depth 1
	ctx := context.Background()
	futA, err := r.f.Submit(0, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // A executes; the queue is empty again
	futB, err := r.f.Submit(0, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.f.Submit(0, ctx, nil)
	var hint *gateway.RetryHintError
	if !errors.As(err, &hint) || hint.Cycles != gateway.QuantizeRetryCycles(RetryCyclesPerSlot) {
		t.Fatalf("full queue: err %v, want a retry hint of one slot", err)
	}
	if _, over := submit.IsOverload(err); !over {
		t.Errorf("retry hint %v hides its overload cause", err)
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		r.f.Queues().Close()
	}()
	for {
		if _, err := r.f.Submit(0, ctx, nil); errors.Is(err, submit.ErrClosed) {
			break
		}
	}
	close(r.release)
	<-closed
	if err := futA.Err(); err != nil {
		t.Errorf("executed request resolved with %v", err)
	}
	if err := futB.Err(); !errors.Is(err, submit.ErrClosed) {
		t.Errorf("request queued at close resolved with %v, want ErrClosed", err)
	}
}

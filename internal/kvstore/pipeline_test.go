package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/workload"
)

// pipeConn serves one in-memory connection with serveConn and returns
// the client end. The returned wait blocks until serveConn returned.
func pipeConn(ns *NetServer, id int) (net.Conn, func()) {
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		ns.serveConn(id, server)
	}()
	return client, func() { <-done }
}

// readReply reads one whole reply: VALUE blocks, STAT and SCAN_MORE
// lines up to the line that ends it.
func readReply(r *bufio.Reader, out *bytes.Buffer) error {
	for {
		line, err := r.ReadString('\n')
		out.WriteString(line)
		if err != nil {
			return err
		}
		switch {
		case strings.HasPrefix(line, "VALUE "):
			f := strings.Fields(line)
			size, err := strconv.Atoi(f[len(f)-1])
			if err != nil {
				return fmt.Errorf("VALUE line %q: %v", line, err)
			}
			block := make([]byte, size+2)
			if _, err := io.ReadFull(r, block); err != nil {
				return err
			}
			out.Write(block)
		case strings.HasPrefix(line, "STAT "), strings.HasPrefix(line, "SCAN_MORE "):
		default:
			return nil
		}
	}
}

// lockstepTranscript sends one command at a time and waits for its reply
// before sending the next, then reads until the server closes.
func lockstepTranscript(ns *NetServer, id int, cmds []string) (string, error) {
	c, wait := pipeConn(ns, id)
	defer wait()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return "", err
	}
	r := bufio.NewReader(c)
	var out bytes.Buffer
	for _, cmd := range cmds {
		if _, err := io.WriteString(c, cmd); err != nil {
			break // the server closed after a malformed line
		}
		if err := readReply(r, &out); err != nil {
			break
		}
	}
	_, err := out.ReadFrom(r)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return out.String(), err
}

// pipelinedTranscript writes the whole script at once and reads until
// the server closes.
func pipelinedTranscript(ns *NetServer, id int, cmds []string) (string, error) {
	c, wait := pipeConn(ns, id)
	defer wait()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return "", err
	}
	go func() { _, _ = io.WriteString(c, strings.Join(cmds, "")) }()
	var out bytes.Buffer
	_, err := out.ReadFrom(c)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return out.String(), err
}

// oracleTenants are the gateway tenants of the transcript oracle; each
// gets exactly one connection.
var oracleTenants = []string{"t0", "t1", "t2"}

// oracleScript is one connection's seeded random command script: data
// commands over a few keys (with same-key runs that span shards),
// exploit SETs, auth/scan/health/stats lines, and now and then a
// malformed line, which ends the script because the server closes.
// Expiry times are 0: a TTL runs on the virtual clock, which batch shape
// legitimately moves.
func oracleScript(rng *workload.RNG, tenant string, withAuth bool) []string {
	var cmds []string
	if withAuth {
		cmds = append(cmds, "auth tok-"+tenant+"\r\n")
	}
	key := fmt.Sprintf("k%d", rng.Intn(6))
	for i := 0; i < 40+rng.Intn(40); i++ {
		if rng.Intn(3) != 0 { // otherwise repeat the key: a same-key run
			key = fmt.Sprintf("k%d", rng.Intn(6))
		}
		switch x := rng.Intn(100); {
		case x < 30:
			cmds = append(cmds, "get "+key+"\r\n")
		case x < 55:
			val := strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(24))
			cmds = append(cmds, fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", key, rng.Intn(3)*7, len(val), val))
		case x < 65:
			cmds = append(cmds, "delete "+key+"\r\n")
		case x < 78:
			val := AttackMarker + strings.Repeat("x", rng.Intn(8))
			cmds = append(cmds, fmt.Sprintf("set %s 0 0 %d\r\n%s\r\n", key, len(val), val))
		case x < 82:
			if rng.Intn(2) == 0 {
				cmds = append(cmds, "auth tok-"+tenant+"\r\n")
			} else {
				cmds = append(cmds, "auth nope\r\n")
			}
		case x < 87:
			cmds = append(cmds, fmt.Sprintf("scan k %d\r\n", 1+rng.Intn(4)))
		case x < 91:
			cmds = append(cmds, "health\r\n")
		case x < 95:
			cmds = append(cmds, "stats\r\n")
		case x < 97:
			return append(cmds, "frobnicate "+key+"\r\n")
		default:
			return append(cmds, "set "+key+" 0 0 zz\r\n")
		}
	}
	return append(cmds, "quit\r\n")
}

// oracleFront is one front configuration of the transcript oracle.
type oracleFront struct {
	name        string
	batched     bool
	maxInflight int // batched only; 1 gives every queue depth 1
	gateway     bool
}

// build makes a fresh front: a 2-shard pool behind the serial or the
// batched NetServer, with a gateway of tight limits drawn from rng.
func (f oracleFront) build(t *testing.T, rng *workload.RNG) *NetServer {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(),
		ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	ns := NewNetServerPool(pool, nil)
	if f.batched {
		if ns, err = NewBatchedNetServerPool(pool, nil, f.maxInflight, 8); err != nil {
			t.Fatalf("NewBatchedNetServerPool: %v", err)
		}
	}
	t.Cleanup(func() {
		if err := ns.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if !f.gateway {
		return ns
	}
	tokens := make(map[string]string, len(oracleTenants))
	for _, tn := range oracleTenants {
		tokens[tn] = "tok-" + tn
	}
	table, err := gateway.NewTable(tokens)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	gw, err := gateway.New(gateway.Config{
		Table: table,
		Limits: gateway.Limits{
			Burst:       2 + rng.Intn(3),
			RefillEvery: uint64(1 + rng.Intn(2)),
			MaxInflight: 1 + rng.Intn(3),
		},
		QuarantineAfter: 2,
		ProbeEvery:      2,
	})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	ns.SetGateway(gw)
	return ns
}

// TestPipelinedTranscriptOracle is the differential oracle for the
// per-connection groups: a connection that writes its whole script at
// once must read back a transcript byte-identical to a client that
// sends one command and waits for its reply, on the serial and the
// batched front, with and without a gateway of tight limits, and with
// queues of depth 1. Connections run one after another, one per
// tenant, so both sides see the same history.
func TestPipelinedTranscriptOracle(t *testing.T) {
	fronts := []oracleFront{
		{name: "serial", gateway: true},
		{name: "serial-nogw"},
		{name: "batched", batched: true, maxInflight: 64, gateway: true},
		{name: "batched-depth1", batched: true, maxInflight: 1, gateway: true},
		{name: "batched-nogw", batched: true, maxInflight: 64},
	}
	for _, f := range fronts {
		t.Run(f.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 30; seed++ {
				rng := workload.NewRNG(seed)
				scripts := make([][]string, len(oracleTenants))
				for i, tn := range oracleTenants {
					scripts[i] = oracleScript(rng, tn, f.gateway)
				}
				// Both fronts draw the same limits.
				want := f.run(t, workload.NewRNG(seed*7919), scripts, lockstepTranscript)
				got := f.run(t, workload.NewRNG(seed*7919), scripts, pipelinedTranscript)
				for i := range want {
					if f.batched {
						want[i], got[i] = violationKind(want[i]), violationKind(got[i])
					}
					if got[i] != want[i] {
						t.Fatalf("seed %d tenant %s: pipelined transcript differs from lock-step\nscript:    %q\npipelined: %q\nlock-step: %q",
							seed, oracleTenants[i], strings.Join(scripts[i], ""), got[i], want[i])
					}
				}
			}
		})
	}
}

// violationDetail matches the detail of a contained violation's reply:
// the corrupted address and canary words.
var violationDetail = regexp.MustCompile(`(SERVER_ERROR sdrad: domain \d+ violation \([^)]*\)):[^\r]*`)

// violationKind cuts each contained violation's reply down to its
// domain and kind. On the batched front a group's requests for one
// shard run as one batch, and a violation rewinds the batch and replays
// it call by call: the outcome is the serial one (DESIGN.md §9), but the
// replay's heap layout, and so the corrupted address the detail names,
// is not. The serial front runs each request alone either way and is
// compared byte for byte.
func violationKind(transcript string) string {
	return violationDetail.ReplaceAllString(transcript, "$1")
}

func (f oracleFront) run(t *testing.T, rng *workload.RNG, scripts [][]string,
	transcript func(*NetServer, int, []string) (string, error)) []string {
	t.Helper()
	ns := f.build(t, rng)
	out := make([]string, len(scripts))
	for i, cmds := range scripts {
		var err error
		if out[i], err = transcript(ns, i+1, cmds); err != nil {
			t.Fatalf("connection %d: %v", i+1, err)
		}
	}
	return out
}

// testPoolFront builds a batched front over a fresh memory-only 2-shard
// pool.
func testPoolFront(t *testing.T) *NetServer {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(),
		ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, 1024, 32)
	if err != nil {
		t.Fatalf("NewBatchedNetServerPool: %v", err)
	}
	t.Cleanup(func() {
		if err := ns.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ns
}

// TestCommandLineBounded: a command line longer than the connection's
// read buffer is answered CLIENT_ERROR and the connection closed; the
// server never buffers the line whole.
func TestCommandLineBounded(t *testing.T) {
	ns := testPoolFront(t)
	c, wait := pipeConn(ns, 1)
	defer wait()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Write(bytes.Repeat([]byte{'a'}, 1<<20)) }()
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to a 1 MiB line without a newline: %v", err)
	}
	if !strings.HasPrefix(line, "CLIENT_ERROR ") || !strings.Contains(line, "command line longer than") {
		t.Fatalf("reply = %q, want CLIENT_ERROR for an overlong line", line)
	}
}

// TestPartialCommandEndsGroup: a command whose bytes are only partly
// buffered ends the group, so the replies owed for the commands before
// it are sent before the server reads again.
func TestPartialCommandEndsGroup(t *testing.T) {
	ns := testPoolFront(t)
	c, wait := pipeConn(ns, 1)
	defer wait()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	for _, step := range []struct {
		sends []string
		want  string
	}{
		{[]string{"get a\r\nge"}, "END\r\n"},
		{[]string{"t a\r\n"}, "END\r\n"},
		// A set whose data block is still on its way is read whole, with
		// no reply owed.
		{[]string{"set a 0 0 2\r\nv", "v\r\n"}, "STORED\r\n"},
	} {
		for _, b := range step.sends {
			if _, err := io.WriteString(c, b); err != nil {
				t.Fatal(err)
			}
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q: %v", step.sends, err)
		}
		if line != step.want {
			t.Fatalf("after %q: reply %q, want %q", step.sends, line, step.want)
		}
	}
}

// TestPipelineLargerThanReadBuffer: 64 pipelined 1 KiB SETs, more than
// the read buffer holds, are all stored and answered in order.
func TestPipelineLargerThanReadBuffer(t *testing.T) {
	ns := testPoolFront(t)
	c, wait := pipeConn(ns, 1)
	defer wait()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const n = 64
	var script bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&script, "set key-%02d 0 0 1024\r\n%s\r\n", i, bytes.Repeat([]byte{byte('a' + i%26)}, 1024))
	}
	fmt.Fprintf(&script, "get key-%02d\r\nquit\r\n", n-1)
	if script.Len() <= connBufSize {
		t.Fatalf("script of %d bytes fits the %d-byte read buffer", script.Len(), connBufSize)
	}
	go func() { _, _ = c.Write(script.Bytes()) }()
	var out bytes.Buffer
	if _, err := out.ReadFrom(c); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("STORED\r\n", n) +
		fmt.Sprintf("VALUE key-%02d 0 1024\r\n%s\r\nEND\r\n", n-1, bytes.Repeat([]byte{byte('a' + (n-1)%26)}, 1024))
	if out.String() != want {
		t.Fatalf("transcript of %d bytes differs from the %d expected", out.Len(), len(want))
	}
}

// TestPipelinedDrainHammer: wire clients pipeline bursts of SETs into a
// durable batched pool while Drain runs. Every STORED seen on the wire
// must be recovered from the reopened data dir, and no burst sent after
// Drain returned may be acknowledged. Run with -race in CI.
func TestPipelinedDrainHammer(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
		Persist: &PersistConfig{Dir: dir, SnapshotEvery: 4},
	}
	pool, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, 256, 8)
	if err != nil {
		t.Fatalf("NewBatchedNetServerPool: %v", err)
	}
	const clients, burst = 4, 16
	var (
		mu      sync.Mutex
		acked   = make(map[string]string)
		drained atomic.Bool
		wg      sync.WaitGroup
		errs    = make(chan error, clients)
	)
	for cl := 0; cl < clients; cl++ {
		c, wait := pipeConn(ns, cl+1)
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			defer wait()
			defer c.Close()
			r := bufio.NewReader(c)
			late := 0 // bursts sent after Drain returned
			for seq := 0; late < 2; seq++ {
				after := drained.Load()
				if after {
					late++
				}
				keys := make([]string, burst)
				var b bytes.Buffer
				for k := range keys {
					keys[k] = fmt.Sprintf("c%d-%d-%d", cl, seq, k)
					fmt.Fprintf(&b, "set %s 0 0 %d\r\n%s\r\n", keys[k], len(keys[k]), keys[k])
				}
				go func() { _, _ = c.Write(b.Bytes()) }()
				for _, key := range keys {
					line, err := r.ReadString('\n')
					if err != nil {
						errs <- fmt.Errorf("client %d: %v", cl, err)
						return
					}
					if line != "STORED\r\n" {
						continue
					}
					if after {
						errs <- fmt.Errorf("client %d: %s acked after Drain returned", cl, key)
						return
					}
					mu.Lock()
					acked[key] = key
					mu.Unlock()
				}
			}
			errs <- nil
		}(cl)
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		enough := len(acked) >= 300
		mu.Unlock()
		if enough {
			break
		}
		if time.Since(start) > 20*time.Second {
			t.Fatal("clients acked fewer than 300 writes in 20 s")
		}
	}
	if err := ns.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	drained.Store(true)
	for cl := 0; cl < clients; cl++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if err := ns.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	if t.Failed() {
		return
	}

	pool2, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("reopen pool: %v", err)
	}
	defer func() {
		if cerr := pool2.Close(); cerr != nil {
			t.Errorf("close recovered pool: %v", cerr)
		}
	}()
	recovered := make(map[string]string)
	for i := 0; i < pool2.Workers(); i++ {
		for k, v := range dumpOrFatal(t, pool2.Shard(i).Cache()) {
			recovered[k] = string(v)
		}
	}
	t.Logf("pipelined drain hammer: %d acked writes, %d recovered keys", len(acked), len(recovered))
	for k, v := range acked {
		if got, ok := recovered[k]; !ok || got != v {
			t.Fatalf("acked write %s recovered as %q (present %v), want %q", k, got, ok, v)
		}
	}
}

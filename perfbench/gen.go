package main

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// nConns is the number of client connections every workload drives:
// one closed-loop client per vCPU of the reference 2-vCPU host.
const nConns = 2

// kvSpec is the traffic of one key-value workload.
type kvSpec struct {
	keys      int     // key space, split across connections
	getFrac   float64 // share of GETs; the rest are SETs
	valueSize int
	burst     int // requests written per flush (1 = one in flight)
	ring      int // pre-generated requests per connection, a multiple of burst
	// preloadRanks is how many of each connection's most popular keys
	// hold a value before the first request.
	preloadRanks int
	// evictable marks a working set larger than the cache: a GET miss
	// on a key the connection has set is then legitimate.
	evictable bool
}

// kvOp is one pre-generated key-value request.
type kvOp struct {
	get bool
	key int32  // index into the key table
	val []byte // SET value, aliasing the stream's wire bytes
	req workload.Request
}

// kvStream is one connection's request ring. Requests are rendered
// back to back into wire; request i is wire[offs[i]:offs[i+1]].
type kvStream struct {
	ops  []kvOp
	offs []int
	wire []byte
}

// burstBytes returns the wire bytes of the n requests starting at i.
func (s *kvStream) burstBytes(i, n int) []byte { return s.wire[s.offs[i]:s.offs[i+n]] }

// renderKeys renders the key table once, during set-up: formatting
// keys inside a timed loop would measure fmt, not the server.
func renderKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = workload.Key(i)
	}
	return keys
}

// seedFor derives an independent generator seed per stream.
func seedFor(seed uint64, stream int) uint64 {
	return seed*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + 1
}

// fillValue writes a value that names its origin (tag) in its first
// bytes, so every SET in a ring carries a distinct value, padded with
// seeded letters.
func fillValue(dst []byte, tag string, rng *workload.RNG) {
	rng.Bytes(dst)
	for i := range dst {
		dst[i] = 'a' + dst[i]%26
	}
	copy(dst, tag)
}

// preloadValues returns every key's initial value, nil for a key not
// preloaded. Key r*nConns+c is connection c's rank-r key.
func preloadValues(spec kvSpec, seed uint64) [][]byte {
	rng := workload.NewRNG(seedFor(seed, 100))
	vals := make([][]byte, spec.keys)
	for i := range vals[:spec.preloadRanks*nConns] {
		vals[i] = make([]byte, spec.valueSize)
		fillValue(vals[i], "p"+strconv.Itoa(i)+":", rng)
	}
	return vals
}

// preloadBatch is how many preload SETs reach the server per batch.
const preloadBatch = 64

// preloadKV SETs every non-nil value in key order through handle, in
// batches, and fails on any refused SET.
func preloadKV(keys []string, vals [][]byte, handle func([]kvstore.BatchRequest) []kvstore.Response) error {
	batch := make([]kvstore.BatchRequest, 0, preloadBatch)
	flush := func() error {
		for j, resp := range handle(batch) {
			if resp.Err != nil || !resp.OK {
				return fmt.Errorf("preload %q: ok=%v err=%v", batch[j].Req.Key, resp.OK, resp.Err)
			}
		}
		batch = batch[:0]
		return nil
	}
	for i, v := range vals {
		if v == nil {
			continue
		}
		batch = append(batch, kvstore.BatchRequest{Req: workload.Request{Op: workload.OpSet, Key: keys[i], Value: v}})
		if len(batch) == preloadBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return flush()
}

// genKV generates connection c's request ring. Connection c owns the
// keys whose index is c modulo nConns, drawn Zipf-distributed over its
// partition, so its shadow map alone predicts every response.
func genKV(spec kvSpec, keys []string, seed uint64, c int) (*kvStream, error) {
	rng := workload.NewRNG(seedFor(seed, c))
	zipf, err := workload.NewZipf(rng, spec.keys/nConns, 0.99)
	if err != nil {
		return nil, err
	}
	st := &kvStream{ops: make([]kvOp, spec.ring), offs: make([]int, spec.ring+1)}
	var wire bytes.Buffer
	wire.Grow(spec.ring * (32 + int((1-spec.getFrac)*float64(spec.valueSize+32))))
	val := make([]byte, spec.valueSize)
	for i := range st.ops {
		k := zipf.Next()*nConns + c
		op := kvOp{key: int32(k), get: rng.Float64() < spec.getFrac}
		op.req = workload.Request{Op: workload.OpGet, Key: keys[k]}
		if !op.get {
			fillValue(val, "c"+strconv.Itoa(c)+"r"+strconv.Itoa(i)+":", rng)
			op.req.Op = workload.OpSet
			op.req.Value = val // re-pointed into wire below
		}
		st.offs[i] = wire.Len()
		wire.Write(workload.RenderKVText(op.req))
		st.ops[i] = op
	}
	st.offs[spec.ring] = wire.Len()
	st.wire = wire.Bytes()
	for i := range st.ops {
		if op := &st.ops[i]; !op.get {
			end := st.offs[i+1] - 2 // value is followed by CRLF
			op.val = st.wire[end-spec.valueSize : end]
			op.req.Value = op.val
		}
	}
	return st, nil
}

// kvInputs are a key-value workload's generated inputs.
type kvInputs struct {
	keys    []string
	preload [][]byte
	streams []*kvStream
}

func genKVInputs(spec kvSpec, seed uint64) (kvInputs, error) {
	in := kvInputs{keys: renderKeys(spec.keys), preload: preloadValues(spec, seed)}
	var err error
	in.streams, err = genKVStreams(spec, in.keys, seed)
	return in, err
}

// genKVStreams generates every connection's ring.
func genKVStreams(spec kvSpec, keys []string, seed uint64) ([]*kvStream, error) {
	streams := make([]*kvStream, nConns)
	for c := range streams {
		st, err := genKV(spec, keys, seed, c)
		if err != nil {
			return nil, err
		}
		streams[c] = st
	}
	return streams, nil
}

// httpPages is the size of the static page population.
const httpPages = 64

// exploitEvery is the attack period on the attacking connection.
const exploitEvery = 16

// httpOp is one pre-generated HTTP request and its expected reply.
type httpOp struct {
	raw     []byte
	page    int
	head    bool
	exploit bool
}

// genPages returns the seeded content of every page.
func genPages(seed uint64) [][]byte {
	rng := workload.NewRNG(seedFor(seed, 200))
	pages := make([][]byte, httpPages)
	for i := range pages {
		pages[i] = make([]byte, 512+rng.Intn(3584))
		fillValue(pages[i], "page "+strconv.Itoa(i)+"\n", rng)
	}
	return pages
}

// exploitHeader is inserted into attack requests; the server's parser
// domain faults on it and must answer 400 while staying up.
var exploitHeader = []byte("x-exploit: 1\r\n")

// genHTTP generates connection c's request ring with the product's own
// generator. Every exploitEvery-th request of the last connection
// carries the exploit header.
func genHTTP(seed uint64, c, n int) ([]httpOp, error) {
	g, err := workload.NewHTTP(workload.HTTPConfig{Paths: httpPages, ZipfS: 0.99, HeadFraction: 0.05, ExtraHeaders: 2, Seed: seedFor(seed, c)})
	if err != nil {
		return nil, err
	}
	pageOf := make(map[string]int, httpPages)
	for i := 0; i < httpPages; i++ {
		pageOf[workload.Path(i)] = i
	}
	ops := make([]httpOp, n)
	for i := range ops {
		r := g.Next()
		p, ok := pageOf[r.Path]
		if !ok {
			return nil, fmt.Errorf("generator produced unknown path %q", r.Path)
		}
		op := httpOp{raw: r.Raw, page: p, head: r.Method == "HEAD"}
		if c == nConns-1 && (i+1)%exploitEvery == 0 {
			body := r.Raw[:len(r.Raw)-2] // strip the blank line
			op.raw = append(append(append([]byte(nil), body...), exploitHeader...), '\r', '\n')
			op.exploit = true
		}
		ops[i] = op
	}
	return ops, nil
}

// httpExpect holds the exact reply bytes of every benign request.
type httpExpect struct {
	get  [][]byte // per page: full 200 reply with the body
	head []byte   // 200 reply to HEAD: the server sends no body
}

func newHTTPExpect(pages [][]byte) *httpExpect {
	e := &httpExpect{get: make([][]byte, len(pages))}
	for i, p := range pages {
		e.get[i] = append([]byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", len(p))), p...)
	}
	e.head = []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
	return e
}

var containedPrefix = []byte("HTTP/1.1 400 ")

// check reports whether reply is the correct answer to op: the page for
// a GET, an empty 200 for a HEAD, a 400 for a contained exploit.
func (e *httpExpect) check(op *httpOp, reply []byte) bool {
	switch {
	case op.exploit:
		return bytes.HasPrefix(reply, containedPrefix)
	case op.head:
		return bytes.Equal(reply, e.head)
	default:
		return bytes.Equal(reply, e.get[op.page])
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName names a layer boundary the traced replay records.
type spanName uint8

const (
	spRequest spanName = iota
	spReadCommand
	spAdmit
	spTicketDone
	spQueueWait
	spHandleBatch
	spAppend
	spSnapshot
	spResolveWait
	spWriteResponse
	spReadHead
	spServeBatch
	spWriteHTTP
	spRoute
	spPoolHandle
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"request", "kvstore.ReadCommand", "gateway.Admit", "gateway.Ticket.Done",
	"submit.queue_wait", "kvstore.Server.HandleBatch", "persist.Store.Append",
	"persist.Store.Snapshot", "submit.resolve_wait", "kvstore.WriteResponse",
	"httpd.ReadRequestHead", "httpd.Server.ServeBatch", "httpd.WriteHTTPResponse",
	"cluster.Router.HandleContext", "kvstore.Pool.HandleContext",
}

// span is one timed interval at a layer boundary. Spans of one request
// share req; a batch span that serves many requests has req -1.
type span struct {
	start, end int64 // ns since the trace epoch
	child      int64 // time covered by the span's children
	req        int64
	parent     int32 // index in the same buffer, -1 for a root
	name       spanName
}

// spanAgg accumulates one span name's count, total time, and self time
// (its duration minus the time its child spans cover).
type spanAgg struct {
	count, total, self int64
}

// keptSpans bounds the spans one buffer keeps for the written trace;
// every span is aggregated whether kept or not.
const keptSpans = 1 << 14

// spanBuf records the spans of one goroutine, so recording takes no
// lock. A nil *spanBuf records nothing: the untraced replay uses it.
type spanBuf struct {
	epoch time.Time
	spans []span
	agg   [nSpanNames]spanAgg
	// open holds spans not yet ended that did not fit in spans.
	open map[int32]*span
	next int32
}

func newSpanBuf(epoch time.Time) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, keptSpans), open: map[int32]*span{}}
}

func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// begin opens a span and returns its handle.
func (b *spanBuf) begin(name spanName, parent int32, req int64) int32 {
	if b == nil {
		return -1
	}
	return b.put(span{start: b.now(), req: req, parent: parent, name: name})
}

func (b *spanBuf) put(s span) int32 {
	id := b.next
	b.next++
	if len(b.spans) < keptSpans {
		b.spans = append(b.spans, s)
	} else {
		b.open[id] = &s
	}
	return id
}

// end closes span id.
func (b *spanBuf) end(id int32) {
	if b == nil {
		return
	}
	b.finish(id, b.now())
}

// record adds a span whose interval was measured elsewhere (for
// example on the goroutine that executed a queued request).
func (b *spanBuf) record(name spanName, parent int32, req int64, start, end int64) {
	if b == nil {
		return
	}
	b.finish(b.put(span{start: start, req: req, parent: parent, name: name}), end)
}

// lookup returns span id, kept or still open.
func (b *spanBuf) lookup(id int32) *span {
	if int(id) < len(b.spans) {
		return &b.spans[id]
	}
	return b.open[id]
}

func (b *spanBuf) finish(id int32, end int64) {
	s := b.lookup(id)
	delete(b.open, id)
	s.end = end
	d := end - s.start
	a := &b.agg[s.name]
	a.count++
	a.total += d
	a.self += d - s.child
	if s.parent >= 0 {
		if p := b.lookup(s.parent); p != nil {
			p.child += d
		}
	}
}

// aggregate sums the per-name figures of every buffer.
func aggregate(bufs []*spanBuf) [nSpanNames]spanAgg {
	var out [nSpanNames]spanAgg
	for _, b := range bufs {
		for i, a := range b.agg {
			out[i].count += a.count
			out[i].total += a.total
			out[i].self += a.self
		}
	}
	return out
}

// writeSpans writes the kept spans as tab-separated lines: buffer,
// name, start ns, end ns, parent index (-1 for a root) and request id.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "buf\tname\tstart_ns\tend_ns\tparent\treq")
	for bi, b := range bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", bi, spanNames[s.name], s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

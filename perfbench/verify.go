package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"

	"repro/internal/kvstore"
)

// kvShadow is one connection's model of its own key partition: the last
// value it successfully SET per key (nil: never set). Connections own
// disjoint keys, so the shadow alone predicts every reply.
type kvShadow struct {
	keys      []string
	last      [][]byte
	evictable bool
}

func newShadow(keys []string, preload [][]byte, evictable bool) *kvShadow {
	last := make([][]byte, len(keys))
	copy(last, preload)
	return &kvShadow{keys: keys, last: last, evictable: evictable}
}

// errDesync reports a reply the client cannot frame, after which the
// connection's byte stream can no longer be trusted.
var errDesync = errors.New("reply stream desynchronised")

var (
	storedLine = []byte("STORED\r\n")
	endLine    = []byte("END\r\n")
	valuePfx   = []byte("VALUE ")
)

// checkWire reads the memcached reply to op from r and reports whether
// it is correct. A GET hit must return the connection's last SET; a
// miss is correct only for a key never set or when eviction can occur.
// A wrong or error reply returns false; a reply that cannot be framed
// returns errDesync.
func (s *kvShadow) checkWire(r *bufio.Reader, op *kvOp) (bool, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if !op.get {
		if bytes.Equal(line, storedLine) {
			s.last[op.key] = op.val
			return true, nil
		}
		return false, nil
	}
	want := s.last[op.key]
	if bytes.Equal(line, endLine) {
		return want == nil || s.evictable, nil
	}
	if !bytes.HasPrefix(line, valuePfx) {
		return false, nil // SERVER_ERROR and the like: one line, stream intact
	}
	n, ok := parseValueLine(line, s.keys[op.key])
	if !ok || n+2 > r.Size() {
		return false, fmt.Errorf("%w: bad VALUE line %q", errDesync, line)
	}
	data, err := r.Peek(n + 2)
	if err != nil {
		return false, err
	}
	match := want != nil && bytes.Equal(data[:n], want) && data[n] == '\r' && data[n+1] == '\n'
	if _, err := r.Discard(n + 2); err != nil {
		return false, err
	}
	line, err = r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if !bytes.Equal(line, endLine) {
		return false, fmt.Errorf("%w: VALUE not followed by END", errDesync)
	}
	return match, nil
}

// parseValueLine parses "VALUE <key> <flags> <bytes>\r\n" for key,
// returning the byte count.
func parseValueLine(line []byte, key string) (int, bool) {
	rest := line[len(valuePfx):]
	if len(rest) <= len(key) || string(rest[:len(key)]) != key || rest[len(key)] != ' ' {
		return 0, false
	}
	rest = rest[len(key)+1:]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 || !bytes.HasSuffix(rest, []byte("\r\n")) {
		return 0, false
	}
	digits := rest[sp+1 : len(rest)-2]
	if len(digits) == 0 || len(digits) > 8 {
		return 0, false
	}
	n := 0
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// checkResp is checkWire for a reply received as a kvstore.Response
// (the routed workload calls the router directly).
func (s *kvShadow) checkResp(op *kvOp, resp kvstore.Response) bool {
	if resp.Err != nil || resp.Contained {
		return false
	}
	if !op.get {
		if resp.OK {
			s.last[op.key] = op.val
		}
		return resp.OK
	}
	want := s.last[op.key]
	if !resp.OK {
		return want == nil || s.evictable
	}
	return want != nil && bytes.Equal(resp.Value, want)
}

package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// This file implements the subset of the memcached text protocol the
// TCP demo binary (cmd/sdrad-kvd) speaks:
//
//	get <key>\r\n
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//	delete <key>\r\n
//	stats\r\n
//	quit\r\n
//
// plus two gateway extensions:
//
//	auth <token>\r\n    (bind the connection to a tenant)
//	health\r\n          (shard + tenant state as STAT lines)
//
// and the paginated scan extension:
//
//	scan <prefix> <limit> [cursor]\r\n
//
// where prefix "*" means every key, limit is clamped to MaxScanPage,
// and a non-empty cursor resumes strictly after that key. A scan page
// answers with VALUE lines, then "SCAN_MORE <cursor>\r\n" when more
// remain, then END. Every page is admitted through the tenant's
// gateway quota like any other request.
//
// Responses follow the memcached wire format (VALUE/END, STORED,
// DELETED, NOT_FOUND, ERROR, SERVER_ERROR <msg>).

// ErrProtocol is returned for malformed protocol input.
var ErrProtocol = errors.New("kvstore: protocol error")

// Command is a parsed protocol command.
type Command struct {
	// Req is the key-value operation for get/set/delete commands.
	Req workload.Request
	// Stats and Quit flag the non-data commands.
	Stats bool
	Quit  bool
	// Auth flags the gateway extension "auth <token>"; Token carries the
	// presented credential.
	Auth  bool
	Token string
	// Health flags the gateway extension "health" (shard + tenant
	// state).
	Health bool
	// Scan flags the paginated scan extension; ScanPrefix, ScanCursor,
	// and ScanLimit carry its arguments (empty prefix = every key).
	Scan       bool
	ScanPrefix string
	ScanCursor string
	ScanLimit  int
}

// data reports whether the command is a get, set or delete.
func (c Command) data() bool {
	return !c.Stats && !c.Quit && !c.Auth && !c.Health && !c.Scan
}

// ReadCommand reads and parses one command from r. A command line
// longer than r's buffer is a protocol error: the line is never held
// beyond that buffer, so a client cannot grow the reader without bound.
func ReadCommand(r *bufio.Reader) (Command, error) {
	raw, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return Command{}, fmt.Errorf("%w: command line longer than %d bytes", ErrProtocol, r.Size())
	}
	if err != nil {
		return Command{}, err
	}
	line := strings.TrimRight(string(raw), "\r\n")
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("%w: empty command", ErrProtocol)
	}
	switch fields[0] {
	case "get", "gets":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: get wants 1 key", ErrProtocol)
		}
		return Command{Req: workload.Request{Op: workload.OpGet, Key: fields[1]}}, nil
	case "delete":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: delete wants 1 key", ErrProtocol)
		}
		return Command{Req: workload.Request{Op: workload.OpDelete, Key: fields[1]}}, nil
	case "set":
		if len(fields) != 5 {
			return Command{}, fmt.Errorf("%w: set wants key flags exptime bytes", ErrProtocol)
		}
		flags, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return Command{}, fmt.Errorf("%w: bad flags %q", ErrProtocol, fields[2])
		}
		exp, err := strconv.Atoi(fields[3])
		if err != nil || exp < 0 {
			return Command{}, fmt.Errorf("%w: bad exptime %q", ErrProtocol, fields[3])
		}
		n, err := strconv.Atoi(fields[4])
		if err != nil || n < 0 || n > MaxValueSize {
			return Command{}, fmt.Errorf("%w: bad byte count %q", ErrProtocol, fields[4])
		}
		data := make([]byte, n+2)
		if _, err := io.ReadFull(r, data); err != nil {
			return Command{}, fmt.Errorf("%w: short data block: %v", ErrProtocol, err)
		}
		if data[n] != '\r' || data[n+1] != '\n' {
			return Command{}, fmt.Errorf("%w: data block not CRLF terminated", ErrProtocol)
		}
		return Command{Req: workload.Request{
			Op:    workload.OpSet,
			Key:   fields[1],
			Value: data[:n],
			TTL:   time.Duration(exp) * time.Second,
			Flags: uint32(flags),
		}}, nil
	case "stats":
		return Command{Stats: true}, nil
	case "auth":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: auth wants 1 token", ErrProtocol)
		}
		return Command{Auth: true, Token: fields[1]}, nil
	case "health":
		return Command{Health: true}, nil
	case "scan":
		if len(fields) != 3 && len(fields) != 4 {
			return Command{}, fmt.Errorf("%w: scan wants prefix limit [cursor]", ErrProtocol)
		}
		limit, err := strconv.Atoi(fields[2])
		if err != nil || limit <= 0 {
			return Command{}, fmt.Errorf("%w: bad scan limit %q", ErrProtocol, fields[2])
		}
		if limit > MaxScanPage {
			limit = MaxScanPage
		}
		prefix := fields[1]
		if prefix == "*" {
			prefix = ""
		}
		cmd := Command{Scan: true, ScanPrefix: prefix, ScanLimit: limit}
		if len(fields) == 4 {
			cmd.ScanCursor = fields[3]
		}
		return cmd, nil
	case "quit":
		return Command{Quit: true}, nil
	default:
		return Command{}, fmt.Errorf("%w: unknown command %q", ErrProtocol, fields[0])
	}
}

// WriteResponse renders resp for req in the memcached wire format.
func WriteResponse(w io.Writer, req workload.Request, resp Response) error {
	switch {
	case resp.Err != nil:
		_, err := io.WriteString(w, "SERVER_ERROR "+resp.Err.Error()+"\r\n")
		return err
	case req.Op == workload.OpGet && resp.OK:
		hdr := make([]byte, 0, len("VALUE  4294967295 \r\n")+len(req.Key)+20)
		hdr = append(append(hdr, "VALUE "...), req.Key...)
		hdr = strconv.AppendUint(append(hdr, ' '), uint64(resp.Flags), 10)
		hdr = strconv.AppendInt(append(hdr, ' '), int64(len(resp.Value)), 10)
		if _, err := w.Write(append(hdr, "\r\n"...)); err != nil {
			return err
		}
		if _, err := w.Write(resp.Value); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\r\nEND\r\n")
		return err
	case req.Op == workload.OpGet:
		_, err := io.WriteString(w, "END\r\n")
		return err
	case req.Op == workload.OpSet:
		_, err := io.WriteString(w, "STORED\r\n")
		return err
	case req.Op == workload.OpDelete && resp.OK:
		_, err := io.WriteString(w, "DELETED\r\n")
		return err
	case req.Op == workload.OpDelete:
		_, err := io.WriteString(w, "NOT_FOUND\r\n")
		return err
	default:
		_, err := io.WriteString(w, "ERROR\r\n")
		return err
	}
}

// WriteScanResponse renders one scan page: a VALUE line (with data
// block) per item in key order, then "SCAN_MORE <cursor>" when the
// table has more matching keys, then END.
func WriteScanResponse(w io.Writer, res ScanResult) error {
	for _, it := range res.Items {
		if _, err := fmt.Fprintf(w, "VALUE %s %d %d\r\n", it.Key, it.Flags, len(it.Value)); err != nil {
			return err
		}
		if _, err := w.Write(it.Value); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\r\n"); err != nil {
			return err
		}
	}
	if res.Cursor != "" {
		if _, err := fmt.Fprintf(w, "SCAN_MORE %s\r\n", res.Cursor); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

// StatsSource is the accounting surface the stats command renders; both
// Server and Pool implement it (the pool's counters are aggregates over
// its shards).
type StatsSource interface {
	Stats() ServerStats
	CacheStats() CacheStats
	CacheBytes() uint64
	CacheItems() int
}

// WriteStats renders the stats command output.
func WriteStats(w io.Writer, s StatsSource) error {
	st := s.Stats()
	cs := s.CacheStats()
	rows := []struct {
		k string
		v uint64
	}{
		{"cmd_total", st.Requests},
		{"contained_violations", st.Violations},
		{"crashes", st.Crashes},
		{"dropped", st.Dropped},
		{"get_hits", cs.Hits},
		{"get_misses", cs.Misses},
		{"evictions", cs.Evictions},
		{"expired", cs.Expired},
		{"bytes", s.CacheBytes()},
		{"curr_items", uint64(s.CacheItems())},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "STAT %s %d\r\n", r.k, r.v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadCommandGet(t *testing.T) {
	cmd, err := ReadCommand(reader("get foo\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Req.Op != workload.OpGet || cmd.Req.Key != "foo" {
		t.Errorf("cmd = %+v", cmd)
	}
	// gets is an accepted alias.
	cmd, err = ReadCommand(reader("gets bar\r\n"))
	if err != nil || cmd.Req.Key != "bar" {
		t.Errorf("gets: %+v, %v", cmd, err)
	}
}

func TestReadCommandSet(t *testing.T) {
	cmd, err := ReadCommand(reader("set k 0 0 5\r\nhello\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Req.Op != workload.OpSet || cmd.Req.Key != "k" || string(cmd.Req.Value) != "hello" {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestReadCommandSetEmptyValue(t *testing.T) {
	cmd, err := ReadCommand(reader("set k 0 0 0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmd.Req.Value) != 0 {
		t.Errorf("value = %q", cmd.Req.Value)
	}
}

func TestReadCommandDeleteStatsQuit(t *testing.T) {
	cmd, err := ReadCommand(reader("delete k\r\n"))
	if err != nil || cmd.Req.Op != workload.OpDelete {
		t.Errorf("delete: %+v, %v", cmd, err)
	}
	cmd, err = ReadCommand(reader("stats\r\n"))
	if err != nil || !cmd.Stats {
		t.Errorf("stats: %+v, %v", cmd, err)
	}
	cmd, err = ReadCommand(reader("quit\r\n"))
	if err != nil || !cmd.Quit {
		t.Errorf("quit: %+v, %v", cmd, err)
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"\r\n",                      // empty
		"get\r\n",                   // missing key
		"get a b\r\n",               // too many keys
		"delete\r\n",                // missing key
		"set k 0 0\r\n",             // missing byte count
		"set k 0 0 abc\r\n",         // non-numeric count
		"set k 0 0 -1\r\n",          // negative count
		"set k 0 0 99999999\r\n",    // over limit
		"set k 0 0 5\r\nhelloXX",    // bad terminator
		"frobnicate\r\n",            // unknown command
		"set k 0 0 10\r\nshort\r\n", // short data
	}
	for _, in := range cases {
		if _, err := ReadCommand(reader(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	// Protocol errors carry the sentinel.
	if _, err := ReadCommand(reader("bogus\r\n")); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestReadCommandEOF(t *testing.T) {
	if _, err := ReadCommand(reader("")); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriteResponseForms(t *testing.T) {
	cases := []struct {
		name string
		req  workload.Request
		resp Response
		want string
	}{
		{"get hit", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{OK: true, Value: []byte("vv")}, "VALUE k 0 2\r\nvv\r\nEND\r\n"},
		{"get miss", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{}, "END\r\n"},
		{"set", workload.Request{Op: workload.OpSet, Key: "k"},
			Response{OK: true}, "STORED\r\n"},
		{"delete hit", workload.Request{Op: workload.OpDelete, Key: "k"},
			Response{OK: true}, "DELETED\r\n"},
		{"delete miss", workload.Request{Op: workload.OpDelete, Key: "k"},
			Response{}, "NOT_FOUND\r\n"},
		{"error", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{Err: errors.New("boom")}, "SERVER_ERROR boom\r\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, c.req, c.resp); err != nil {
				t.Fatal(err)
			}
			if buf.String() != c.want {
				t.Errorf("got %q, want %q", buf.String(), c.want)
			}
		})
	}
}

func TestWriteStats(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, _ := NewCache(sys, 1, 1<<20)
	srv, _ := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD})
	_ = srv.Handle(0, workload.Request{Op: workload.OpSet, Key: "a", Value: []byte("b")})
	var buf bytes.Buffer
	if err := WriteStats(&buf, srv); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"STAT cmd_total 1", "STAT curr_items 1", "END\r\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
}

// Round trip: encode a response, parse it the way a client would.
func TestProtocolRoundTripThroughServer(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, _ := NewCache(sys, 1, 1<<20)
	srv, _ := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD})

	script := "set greeting 0 0 5\r\nhello\r\nget greeting\r\ndelete greeting\r\nget greeting\r\n"
	r := bufio.NewReader(strings.NewReader(script))
	var out bytes.Buffer
	for i := 0; i < 4; i++ {
		cmd, err := ReadCommand(r)
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.Handle(1, cmd.Req)
		if err := WriteResponse(&out, cmd.Req, resp); err != nil {
			t.Fatal(err)
		}
	}
	want := "STORED\r\nVALUE greeting 0 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n"
	if out.String() != want {
		t.Errorf("transcript:\n%q\nwant:\n%q", out.String(), want)
	}
}

// TestRenderingBytes pins the request payload and the reply bytes to
// the fmt renderings they replaced: the payload's bytes are charged per
// byte on the virtual clock, and the replies are the wire.
func TestRenderingBytes(t *testing.T) {
	reqs := []workload.Request{
		{Op: workload.OpSet, Key: "k", Value: []byte("hello")},
		{Op: workload.OpSet, Key: "empty", Value: []byte{}},
		{Op: workload.OpSet, Key: "big", Value: bytes.Repeat([]byte("v"), 1024), Flags: 7},
		{Op: workload.OpGet, Key: "user:42"},
		{Op: workload.OpDelete, Key: "gone"},
	}
	for _, req := range reqs {
		var want string
		switch req.Op {
		case workload.OpSet:
			want = fmt.Sprintf("set %s 0 0 %d\r\n", req.Key, len(req.Value)) + string(req.Value) + "\r\n"
		case workload.OpDelete:
			want = fmt.Sprintf("delete %s\r\n", req.Key)
		default:
			want = fmt.Sprintf("get %s\r\n", req.Key)
		}
		if got := string(payload(req)); got != want {
			t.Errorf("payload(%v %q) = %q, want %q", req.Op, req.Key, got, want)
		}
	}

	get := workload.Request{Op: workload.OpGet, Key: "user:42"}
	hit := Response{OK: true, Value: []byte("abc"), Flags: 4294967295}
	empty := Response{OK: true, Value: []byte{}, Flags: 3}
	replies := []struct {
		req  workload.Request
		resp Response
		want string
	}{
		{get, hit, fmt.Sprintf("VALUE %s %d %d\r\n", get.Key, hit.Flags, len(hit.Value)) + "abc\r\nEND\r\n"},
		{get, empty, fmt.Sprintf("VALUE %s %d %d\r\n", get.Key, empty.Flags, 0) + "\r\nEND\r\n"},
		{get, Response{}, "END\r\n"},
		{reqs[0], Response{OK: true}, "STORED\r\n"},
		{reqs[1], Response{OK: true}, "STORED\r\n"},
		{reqs[4], Response{OK: true}, "DELETED\r\n"},
		{reqs[4], Response{}, "NOT_FOUND\r\n"},
		{reqs[0], Response{Err: ErrProtocol}, fmt.Sprintf("SERVER_ERROR %s\r\n", ErrProtocol)},
	}
	for _, c := range replies {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, c.req, c.resp); err != nil {
			t.Fatal(err)
		}
		if buf.String() != c.want {
			t.Errorf("WriteResponse(%v %q, %+v) = %q, want %q", c.req.Op, c.req.Key, c.resp, buf.String(), c.want)
		}
	}
}

package httpd

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
)

func startNet(t *testing.T, mode Mode) (string, func()) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := NewServer(sys, Config{Mode: mode, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.HandleFunc("/", []byte("<html>home</html>"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := NewNetServer(srv, nil)
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func httpGet(t *testing.T, addr string, headers map[string]string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil {
			t.Logf("close: %v", cerr)
		}
	}()
	if _, err := conn.Write(BuildRequest("GET", "/", headers)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := conn.Read(buf)
		out.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return out.String()
}

func TestHTTPNetServerServes(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()
	out := httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") {
		t.Errorf("response: %q", out)
	}
	if !strings.Contains(out, "<html>home</html>") {
		t.Errorf("body missing: %q", out)
	}
}

func TestHTTPNetServerContainsExploit(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()
	out := httpGet(t, addr, map[string]string{AttackHeader: "1"})
	if !strings.HasPrefix(out, "HTTP/1.1 400") {
		t.Errorf("attack response: %q", out)
	}
	// Server still up.
	out = httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200") {
		t.Errorf("post-attack response: %q", out)
	}
}

func TestReadRequestHead(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nhost: x\r\n\r\ntrailing-not-read"
	head, err := ReadRequestHead(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(head) != "GET / HTTP/1.1\r\nhost: x\r\n\r\n" {
		t.Errorf("head = %q", head)
	}
	// EOF without terminator still returns what arrived.
	head, err = ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n")))
	if err != nil || len(head) == 0 {
		t.Errorf("partial head: %q, %v", head, err)
	}
	// Empty stream errors.
	if _, err := ReadRequestHead(bufio.NewReader(strings.NewReader(""))); err == nil {
		t.Error("empty stream accepted")
	}
	// Oversized head rejected.
	big := strings.Repeat("h: v\r\n", 20_000)
	if _, err := ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n" + big))); err == nil {
		t.Error("oversized head accepted")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadRequestHeadBoundsLine pins the head limit inside a line: a
// newline-free stream used to be buffered whole and returned as the
// head at EOF. It must fail once 64 KiB have passed, having read at
// most one reader buffer beyond that.
func TestReadRequestHeadBoundsLine(t *testing.T) {
	src := &countingReader{r: strings.NewReader(strings.Repeat("A", 1<<20))}
	r := bufio.NewReader(src)
	if head, err := ReadRequestHead(r); err == nil || !strings.Contains(err.Error(), "request head too large") {
		t.Fatalf("newline-free 1 MiB head: %d bytes, err %v; want request head too large", len(head), err)
	}
	if limit := 64<<10 + r.Size(); src.n > limit {
		t.Errorf("consumed %d bytes, want at most %d", src.n, limit)
	}
	// A line longer than the reader's buffer is still one line: its
	// CRLF does not end the head.
	long := "GET / HTTP/1.1\r\nh: " + strings.Repeat("v", 5000) + "\r\n\r\n"
	head, err := ReadRequestHead(bufio.NewReaderSize(strings.NewReader(long+"rest"), 16))
	if err != nil || string(head) != long {
		t.Errorf("long header line: %q, %v", head, err)
	}
}

func TestWriteHTTPResponseForms(t *testing.T) {
	var b strings.Builder
	WriteHTTPResponse(&b, Response{Status: 200, Body: []byte("hi")})
	if !strings.HasPrefix(b.String(), "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n") {
		t.Errorf("200: %q", b.String())
	}
	b.Reset()
	WriteHTTPResponse(&b, Response{}) // zero status defaults to 500
	if !strings.HasPrefix(b.String(), "HTTP/1.1 500") {
		t.Errorf("default: %q", b.String())
	}
	b.Reset()
	WriteHTTPResponse(&b, Response{Status: 503, Err: ErrUnavailable})
	if !strings.Contains(b.String(), "503 Service Unavailable") || !strings.Contains(b.String(), "restarting") {
		t.Errorf("503: %q", b.String())
	}
}

func TestStatusText(t *testing.T) {
	cases := map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found",
		405: "Method Not Allowed", 503: "Service Unavailable", 599: "Internal Server Error"}
	for code, want := range cases {
		if got := StatusText(code); got != want {
			t.Errorf("StatusText(%d) = %q", code, got)
		}
	}
}

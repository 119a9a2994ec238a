package main

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// duplexConn joins a request stream and a reply sink into the
// io.ReadWriter serveConn wants.
type duplexConn struct {
	io.Reader
	io.Writer
}

// TestProtocolErrorClosesConnection pins the fix for command smuggling:
// after a protocol error the reader may stop inside the bad command, so
// answering CLIENT_ERROR and reading on parsed the bytes left over — the
// tail of an over-long line, or what follows a data block that is not
// CRLF-terminated — as a fresh command. The connection must close after
// the error instead, so the smuggled delete never runs.
func TestProtocolErrorClosesConnection(t *testing.T) {
	for _, tc := range []struct{ name, script string }{
		{"over-long line", strings.Repeat("x", 4096) + "delete victim\r\n"},
		{"unterminated block", "set k 0 0 5\r\nhello..delete victim\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			router, err := cluster.NewRouter(cluster.RouterConfig{
				Nodes:  1,
				Sys:    core.DefaultConfig(),
				Server: kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if cerr := router.Close(); cerr != nil {
					t.Errorf("close router: %v", cerr)
				}
			}()
			ctx := context.Background()
			set := workload.Request{Op: workload.OpSet, Key: "victim", Value: []byte("v")}
			if resp := router.HandleContext(ctx, 0, set); !resp.OK {
				t.Fatalf("set victim: %+v", resp)
			}

			var out strings.Builder
			serveConn(router, 1, &duplexConn{strings.NewReader(tc.script), &out})
			if got := out.String(); !strings.HasPrefix(got, "CLIENT_ERROR ") || strings.Count(got, "\r\n") != 1 {
				t.Errorf("reply %q, want one CLIENT_ERROR line", got)
			}
			if resp := router.HandleContext(ctx, 0, workload.Request{Op: workload.OpGet, Key: "victim"}); !resp.OK {
				t.Errorf("victim gone after the protocol error: %+v", resp)
			}
		})
	}
}

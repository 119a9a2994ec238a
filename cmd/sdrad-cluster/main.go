// Command sdrad-cluster fronts a fleet of in-process sdrad-kvd shard
// nodes with a cluster router: keys place onto nodes by rendezvous
// hashing over 64 virtual slots, acked mutations replicate
// synchronously to each slot's -replicas extra holders, and node health
// is tracked by arrival-counted leases (-lease-cycles) — the same
// deterministic membership clock the differential oracle replays.
//
// It speaks the same memcached text subset as sdrad-kvd
// (get/set/delete/stats/scan/quit) plus two cluster extensions on the
// health command: per-node lease state and placement epoch.
//
// Usage:
//
//	sdrad-cluster [-addr 127.0.0.1:11311] [-nodes 3] [-replicas 1]
//	              [-lease-cycles 8] [-shards-per-node 1]
//	              [-capacity 67108864] [-read-replicas]
//
// Try it:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nhealth\r\nquit\r\n' | nc 127.0.0.1 11311
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11311", "listen address")
	nodes := flag.Int("nodes", 3, "shard node count (node ids 0..N-1)")
	replicas := flag.Int("replicas", 1, "extra synchronous copies per slot beyond the primary (clamped to nodes-1)")
	leaseCycles := flag.Uint64("lease-cycles", cluster.DefaultLeaseCycles, "membership lease in arrival-counted cycles (health degrades past 1x, dies past 2x)")
	shardsPerNode := flag.Int("shards-per-node", 1, "local kvstore shards inside each node")
	capacity := flag.Uint64("capacity", 64<<20, "per-node cache capacity in bytes")
	readReplicas := flag.Bool("read-replicas", false, "round-robin GETs across a slot's holders instead of pinning to the primary")
	flag.Parse()

	if err := run(*addr, cluster.RouterConfig{
		Nodes:         *nodes,
		Replicas:      *replicas,
		LeaseCycles:   *leaseCycles,
		Sys:           core.DefaultConfig(),
		Server:        kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Microsecond},
		ShardsPerNode: *shardsPerNode,
		Capacity:      *capacity,
		ReadReplicas:  *readReplicas,
	}); err != nil {
		log.SetFlags(0)
		log.Fatalf("sdrad-cluster: %v", err)
	}
}

func run(addr string, cfg cluster.RouterConfig) error {
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := router.Close(); cerr != nil {
			log.Printf("close router: %v", cerr)
		}
	}()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("sdrad-cluster listening on %s (nodes=%d, replicas=%d, lease-cycles=%d, read-replicas=%v)",
		ln.Addr(), cfg.Nodes, cfg.Replicas, cfg.LeaseCycles, cfg.ReadReplicas)

	var draining atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Print("draining")
		draining.Store(true)
		if derr := router.Drain(); derr != nil {
			log.Printf("drain: %v", derr)
		}
		if cerr := ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			log.Printf("close listener: %v", cerr)
		}
	}()

	var wg sync.WaitGroup
	var connID int
	for {
		conn, aerr := ln.Accept()
		if aerr != nil {
			wg.Wait()
			if draining.Load() || errors.Is(aerr, net.ErrClosed) {
				return nil
			}
			return aerr
		}
		connID++
		wg.Add(1)
		go func(id int, c net.Conn) {
			defer wg.Done()
			defer func() {
				if cerr := c.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					log.Printf("conn %d: close: %v", id, cerr)
				}
			}()
			serveConn(router, id, c)
		}(connID, conn)
	}
}

// serveConn runs the text protocol loop for one connection against the
// cluster router.
func serveConn(router *cluster.Router, id int, conn io.ReadWriter) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer func() {
		if err := w.Flush(); err != nil {
			log.Printf("conn %d: flush: %v", id, err)
		}
	}()
	for {
		cmd, err := kvstore.ReadCommand(r)
		if err != nil {
			// After a protocol error the reader may sit inside the bad
			// command (the tail of an over-long line, a data block), so
			// the connection closes rather than parse those bytes as
			// commands.
			if errors.Is(err, kvstore.ErrProtocol) {
				fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", err)
			}
			return
		}
		switch {
		case cmd.Quit:
			return
		case cmd.Stats:
			err = writeClusterStats(w, router)
		case cmd.Health:
			err = writeClusterHealth(w, router)
		case cmd.Auth:
			_, err = io.WriteString(w, "CLIENT_ERROR auth not supported by the cluster router\r\n")
		case cmd.Scan:
			var res kvstore.ScanResult
			res, err = router.Scan(cmd.ScanPrefix, cmd.ScanCursor, cmd.ScanLimit)
			if err != nil {
				err = writeServerError(w, err)
			} else {
				err = kvstore.WriteScanResponse(w, res)
			}
		default:
			resp := router.HandleContext(context.Background(), id, cmd.Req)
			if resp.Err != nil {
				err = writeServerError(w, resp.Err)
			} else {
				err = kvstore.WriteResponse(w, cmd.Req, resp)
			}
		}
		if err != nil {
			log.Printf("conn %d: write: %v", id, err)
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// writeServerError renders an error line; unavailable slots carry the
// router's deterministic retry hint so clients can back off precisely.
func writeServerError(w io.Writer, err error) error {
	var ue *cluster.UnavailableError
	if errors.As(err, &ue) {
		_, werr := fmt.Fprintf(w, "SERVER_ERROR %s (retry-cycles %d)\r\n", ue, ue.RetryCycles)
		return werr
	}
	_, werr := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", err)
	return werr
}

// writeClusterStats renders the stats command: aggregate request
// accounting plus the cluster counters.
func writeClusterStats(w io.Writer, router *cluster.Router) error {
	st := router.Stats()
	rows := []struct {
		k string
		v uint64
	}{
		{"cmd_total", st.Requests},
		{"contained_violations", st.Violations},
		{"crashes", st.Crashes},
		{"dropped", st.Dropped},
		{"preempted", st.Preempted},
		{"cluster_nodes", uint64(len(router.NodeIDs()))},
		{"cluster_epoch", router.Epoch()},
		{"cluster_dispatched", router.Dispatched()},
		{"cluster_handoffs", router.Handoffs()},
		{"cluster_unavailable", router.Unavailable()},
		{"cluster_virtual_ns", uint64(router.VirtualTime())},
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "STAT %s %d\r\n", row.k, row.v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

// writeClusterHealth renders the health command: one STAT line per node
// with its lease-derived state and age, plus the placement epoch.
func writeClusterHealth(w io.Writer, router *cluster.Router) error {
	if _, err := fmt.Fprintf(w, "STAT cluster_epoch %d\r\n", router.Epoch()); err != nil {
		return err
	}
	for _, m := range router.Members() {
		state := "healthy"
		switch m.State {
		case lifecycle.StateDegraded:
			state = "degraded"
		case lifecycle.StateStopped:
			state = "dead"
		}
		if _, err := fmt.Fprintf(w, "STAT node%d %s age=%d\r\n", m.ID, state, m.Age); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

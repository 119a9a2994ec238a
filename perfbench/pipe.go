package main

import (
	"net"
	"sync"
)

// pipeListener is an in-memory net.Listener: Dial hands the server one
// end of a net.Pipe through Accept and returns the other. It keeps the
// kernel's TCP stack and its scheduling out of the measurement, so the
// figures describe the program.
//
// net.Pipe is unbuffered: a Write blocks until the peer has read every
// byte. A client that pipelines more bytes than the server's read
// buffer holds must therefore write and read on separate goroutines
// (see kvConn), or both ends block in Write.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener; Accept then returns net.ErrClosed.
func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial connects to the listener, blocking until the server accepts.
func (l *pipeListener) Dial() (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		_ = server.Close()
		_ = client.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

//go:build !linux

package transport

import (
	"context"
	"net"
	"sync"
)

// Off Linux the socket layer is net's: same address rule, TCP_NODELAY, no keep-alive.
type Listener struct{ net.Listener }
type Conn struct{ *net.TCPConn }

func Listen(addr string) (*Listener, error) {
	ap, err := parseAddr(addr)
	if err == nil {
		var ln net.Listener
		if ln, err = (&net.ListenConfig{KeepAlive: -1}).Listen(context.Background(), "tcp", ap.String()); err == nil {
			return &Listener{ln}, nil
		}
	}
	return nil, err
}
func (l *Listener) Addr() string           { return l.Listener.Addr().String() }
func (l *Listener) Accept() (*Conn, error) { return asConn(l.Listener.Accept()) }
func Dial(addr string) (*Conn, error) {
	ap, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	return asConn((&net.Dialer{KeepAlive: -1}).Dial("tcp", ap.String()))
}
func asConn(c net.Conn, err error) (*Conn, error) {
	if err != nil {
		return nil, err
	}
	return &Conn{c.(*net.TCPConn)}, nil
}

var vecs = sync.Pool{New: func() any { return new([2]net.Buffers) }} // Writev's: backing, view

func (c *Conn) Writev(bufs [][]byte) error {
	v := vecs.Get().(*[2]net.Buffers)
	v[0] = append(v[0][:0], bufs...)
	v[1] = v[0]
	_, err := v[1].WriteTo(c.TCPConn) // nils each buffer it has written
	vecs.Put(v)
	return err
}

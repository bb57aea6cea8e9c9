package status

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strings"
	"sync"
	"time"

	"ring/internal/core"
	"ring/internal/transport"
)

// maxHead caps the bytes read for one request head. A scrape's head is
// a few hundred bytes; nothing a handler reads is longer than a query
// parameter.
const maxHead = 8 << 10

// headDeadline bounds how long a connection may take to deliver its
// request head, and then how long it may take to accept the response.
// A variable only so the tests can shorten it.
var headDeadline = 5 * time.Second

// Server answers the monitoring routes for one runner: one bodiless GET
// per connection, answered with a Content-Length and closed.
type Server struct {
	runner *core.Runner
	ln     *transport.Listener
	done   chan struct{} // closed by Close; ends a profile's wait early

	mu    sync.Mutex
	conns map[*transport.Conn]struct{} // open connections; nil once Close has run
	wg    sync.WaitGroup               // the accept loop and every connection's goroutine
}

// Serve starts the HTTP listener on addr (e.g. ":8080" or
// "127.0.0.1:0") and returns the server; Close stops it.
func Serve(r *core.Runner, addr string) (*Server, error) {
	ln, err := transport.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	s := &Server{runner: r, ln: ln, done: make(chan struct{}), conns: make(map[*transport.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// Close stops the server: the listener is closed, every open connection
// is ended, and no goroutine of the server is left when it returns.
func (s *Server) Close() error {
	s.mu.Lock()
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	if conns == nil {
		return nil
	}
	close(s.done)
	err := s.ln.Close()
	for c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// serveConn answers the one request a connection carries.
func (s *Server) serveConn(c *transport.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.wg.Done()
	}()
	_ = c.SetDeadline(time.Now().Add(headDeadline))
	method, target, err := readHead(c)
	resp := s.respond(method, target, err)
	_ = c.SetDeadline(time.Now().Add(headDeadline)) // a profile may have outlasted the first one
	var head bytes.Buffer
	fmt.Fprintf(&head, "HTTP/1.1 %d %s\r\n", resp.code, statusText[resp.code])
	if resp.code == 405 {
		head.WriteString("Allow: GET\r\n")
	}
	fmt.Fprintf(&head, "Content-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", resp.ctype, len(resp.body))
	if err := c.Writev([][]byte{head.Bytes(), resp.body}); err != nil {
		return
	}
	// Closing over input left unread (a head cut off at the cap, a body
	// nobody asked for) resets the connection, and the reset may reach
	// the client ahead of the reply: say the reply is over and let the
	// client close first, within the deadline.
	if c.CloseWrite() == nil {
		_, _ = io.Copy(io.Discard, c)
	}
}

// response is what a handler answers: the body is whole before the
// first byte is sent, so every response carries its length.
type response struct {
	code  int
	ctype string
	body  []byte
}

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	500: "Internal Server Error",
}

// The content types of everything that is not JSON or /metrics.
const (
	plainText     = "text/plain; charset=utf-8"
	binaryProfile = "application/octet-stream"
)

// errorResponse is a plain-text error, msg and a newline.
func errorResponse(code int, msg string) response {
	return response{code: code, ctype: plainText, body: []byte(msg + "\n")}
}

// jsonResponse renders v the way every JSON route does, indented.
func jsonResponse(v any) response {
	body, err := marshalJSON(v)
	if err != nil {
		return errorResponse(500, err.Error())
	}
	return response{code: 200, ctype: "application/json", body: body}
}

// handler answers one route; the query is the only request input any
// of them reads.
type handler func(*Server, url.Values) response

// routes is every path the server answers; profile.go adds the named
// profiles under /debug/pprof/. Paths match exactly and as they were
// sent: nothing is unescaped or cleaned, and there are no trailing-slash
// or prefix matches.
var routes = map[string]handler{
	"/status":              (*Server).handleStatus,
	"/metrics":             (*Server).handleMetrics,
	"/debug/ringvars":      (*Server).handleRingvars,
	"/debug/trace":         (*Server).handleTrace,
	"/debug/pprof/":        (*Server).handleProfileIndex,
	"/debug/pprof/profile": (*Server).handleCPUProfile,
	"/debug/pprof/trace":   (*Server).handleExecTrace,
}

// respond answers one parsed request head (or the error reading it).
func (s *Server) respond(method string, target *url.URL, err error) response {
	if err != nil {
		return errorResponse(400, "400 bad request: "+err.Error())
	}
	h, ok := routes[target.EscapedPath()]
	switch {
	case !ok:
		return errorResponse(404, "404 page not found")
	case method != "GET":
		return errorResponse(405, "405 method not allowed: this port answers GET")
	}
	return h(s, target.Query())
}

var errHeadTooLarge = fmt.Errorf("request head over %d bytes", maxHead)

// readHead reads one request head from r, through the blank line that
// ends it and never more than maxHead bytes, and returns the method and
// target of its request line. The header lines are skipped: no route
// reads one.
func readHead(r io.Reader) (method string, target *url.URL, err error) {
	lr := &io.LimitedReader{R: r, N: maxHead}
	br := bufio.NewReaderSize(lr, maxHead)
	// readLine fails when r does, or when the cap cut the line short.
	readLine := func() ([]byte, error) {
		line, err := br.ReadSlice('\n')
		if err != nil && lr.N == 0 {
			err = errHeadTooLarge
		}
		return line, err
	}
	line, err := readLine()
	if err != nil {
		return "", nil, err
	}
	method, rest, _ := strings.Cut(strings.TrimRight(string(line), "\r\n"), " ")
	uri, version, ok := strings.Cut(rest, " ")
	if !ok || method == "" || !strings.HasPrefix(version, "HTTP/1.") {
		return "", nil, errors.New("malformed request line")
	}
	if target, err = url.ParseRequestURI(uri); err != nil {
		return "", nil, errors.New("malformed request target")
	}
	for {
		if line, err = readLine(); err != nil {
			return "", nil, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return method, target, nil
		}
	}
}

package status

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/testutil"
)

// oneNode is the smallest cluster a monitor can be served for.
var oneNode = core.ClusterSpec{Shards: 1, Memgests: []proto.Scheme{proto.Rep(1, 1)}}

// exchange sends request on a fresh connection and returns everything
// the server answers before it ends the connection. The send runs
// beside the read: a server that stops reading must not block the test.
func exchange(t *testing.T, addr, request string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	go io.WriteString(c, request)
	reply, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("%.40q: the server did not end the connection: %v (read %.80q)", request, err, reply)
	}
	return string(reply)
}

// TestMonitorDropsSilentClient: a client that connects and sends
// nothing, or part of a request head, is gone when the head deadline
// passes. Under net/http without ReadHeaderTimeout it kept a goroutine
// and a descriptor until the node exited.
func TestMonitorDropsSilentClient(t *testing.T) {
	shortenHeadDeadline(t, 50*time.Millisecond)
	_, addrs := startObservedCluster(t, oneNode)
	for _, sent := range []string{"", "GET /status HTTP/1.1\r\n"} {
		c, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, sent); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(3 * time.Second))
		if reply, err := io.ReadAll(c); err != nil {
			t.Fatalf("after %q and silence the server kept the connection: %v", sent, err)
		} else if len(reply) > 0 && !strings.HasPrefix(string(reply), "HTTP/1.1 400 ") {
			t.Fatalf("after %q and silence the server answered %q", sent, reply)
		}
	}
}

// TestServerCloseEndsConnections: Close returns with the listener
// closed, every open connection ended and no goroutine left behind.
func TestServerCloseEndsConnections(t *testing.T) {
	cl, err := core.StartCluster(oneNode)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	before := runtime.NumGoroutine()
	srv, err := Serve(cl.Runs[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var open []net.Conn
	for _, sent := range []string{"", "GET /status HTTP/1.1\r\n", "GET /debug/pprof/profile?seconds=3600 HTTP/1.1\r\n\r\n"} {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, sent); err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
	}
	// Connections are accepted in order: once this one is answered, the
	// three above have their goroutines.
	if reply := exchange(t, srv.Addr(), "GET /status HTTP/1.0\r\n\r\n"); !strings.Contains(reply, " 200 OK\r\n") {
		t.Fatalf("status: %q", reply)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := net.Dial("tcp", srv.Addr()); err == nil {
		c.Close()
		t.Fatal("the listener still accepts after Close")
	}
	for i, c := range open {
		_ = c.SetReadDeadline(time.Now().Add(3 * time.Second))
		// EOF or a reset, either is an end; a timeout is not.
		if _, err := io.ReadAll(c); err != nil && strings.Contains(err.Error(), "timeout") {
			t.Fatalf("connection %d outlived Close: %v", i, err)
		}
	}
	if !testutil.Eventually(3*time.Second, time.Millisecond, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Serve, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestServeConformance holds the server to what its clients send: Go's
// http.Client (the benchmark, these tests), a raw HTTP/1.0 GET
// (FetchRingvars), and requests nobody should send.
func TestServeConformance(t *testing.T) {
	_, addrs := startObservedCluster(t, oneNode)
	addr := addrs[0]

	// Two requests from one http.Client are two connections: the server
	// says it closes, and the length it announces is the body's.
	for i := 0; i < 2; i++ {
		resp, err := http.Get("http://" + addr + "/status")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || !resp.Close || resp.ContentLength != int64(len(body)) ||
			resp.Header.Get("Content-Type") != "application/json" || !bytes.Contains(body, []byte(`"node_id": 0`)) {
			t.Fatalf("get %d: %v, %s, close=%v, Content-Length %d for %d bytes, %q", i, err, resp.Status, resp.Close, resp.ContentLength, len(body), resp.Header)
		}
	}

	long := strings.Repeat("a", 64<<10)
	for _, tc := range []struct {
		name, request string
		code          int
		body          string // of an error, whole; of a 200, a part
	}{
		{"http/1.0", "GET /status HTTP/1.0\r\n\r\n", 200, `"serving": true`},
		{"bare newlines", "GET /status HTTP/1.1\nHost: x\n\n", 200, `"serving": true`},
		{"query ignored", "GET /status?verbose=1 HTTP/1.1\r\n\r\n", 200, `"serving": true`},
		{"absolute target", "GET http://elsewhere:1/metrics HTTP/1.1\r\n\r\n", 200, "ring_node_id 0\n"},
		{"metrics", "GET /metrics HTTP/1.1\r\n\r\n", 200, "\nring_process_rss_peak_bytes "},
		{"post", "POST /status HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 405, "405 method not allowed: this port answers GET\n"},
		{"head", "HEAD /status HTTP/1.1\r\n\r\n", 405, "405 method not allowed: this port answers GET\n"},
		{"post off the table", "POST /nope HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"off the table", "GET /nope HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"prefix", "GET /status/ HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"dot segments", "GET /debug/../status HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"escaped slash", "GET /debug%2fringvars HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"escaped letter", "GET /%73tatus HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"unknown profile", "GET /debug/pprof/cmdline HTTP/1.1\r\n\r\n", 404, "404 page not found\n"},
		{"bad n", "GET /debug/trace?n=-1 HTTP/1.1\r\n\r\n", 400, "bad n parameter \"-1\": want a non-negative integer\n"},
		{"no target", "GET\r\n\r\n", 400, "400 bad request: malformed request line\n"},
		{"not http", "GET /status SPDY/3\r\n\r\n", 400, "400 bad request: malformed request line\n"},
		{"bad escape", "GET /status%zz HTTP/1.1\r\n\r\n", 400, "400 bad request: malformed request target\n"},
		{"tls hello", "\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\n\n", 400, "400 bad request: malformed request line\n"},
		{"long request line", "GET /" + long + " HTTP/1.1\r\n\r\n", 400, "400 bad request: request head over 8192 bytes\n"},
		{"long header", "GET /status HTTP/1.1\r\nX-Pad: " + long + "\r\n\r\n", 400, "400 bad request: request head over 8192 bytes\n"},
	} {
		reply := exchange(t, addr, tc.request)
		resp, err := http.ReadResponse(bufio.NewReader(strings.NewReader(reply)), nil)
		if err != nil {
			t.Fatalf("%s: %v in %.200q", tc.name, err, reply)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != tc.code || resp.Proto != "HTTP/1.1" || !resp.Close || resp.ContentLength != int64(len(body)) {
			t.Fatalf("%s: %v, %s %s, close=%v, Content-Length %d for %d bytes", tc.name, err, resp.Proto, resp.Status, resp.Close, resp.ContentLength, len(body))
		}
		if _, after, _ := strings.Cut(reply, "\r\n\r\n"); after != string(body) {
			t.Fatalf("%s: %d bytes follow the head, Content-Length says %d", tc.name, len(after), len(body))
		}
		if tc.code != 200 && string(body) != tc.body || !strings.Contains(string(body), tc.body) {
			t.Fatalf("%s: body %.200q, want %q", tc.name, body, tc.body)
		}
		if tc.code == 405 && resp.Header.Get("Allow") != "GET" {
			t.Fatalf("%s: 405 without Allow: GET: %q", tc.name, resp.Header)
		}
	}
}

// countingReader counts what readHead takes from it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzRequestHead: whatever bytes arrive, the parser does not panic,
// reads no more than the cap, and yields a handler only for a path that
// stands in the request line as it is on the route table.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /status HTTP/1.1\r\nHost: 127.0.0.1:8180\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"GET /debug/ringvars HTTP/1.0\r\nHost: x\r\n\r\n",
		"GET /debug/trace?n=5 HTTP/1.1\n\n",
		"GET http://h/debug/pprof/heap?debug=1 HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/../../status HTTP/1.1\r\n\r\n",
		"GET /%73tatus HTTP/1.1\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 1\r\n\r\nx",
		"GET * HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
		"GET /" + strings.Repeat("a", maxHead) + " HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &countingReader{r: bytes.NewReader(data)}
		method, target, err := readHead(in)
		if in.n > maxHead {
			t.Fatalf("read %d bytes, the cap is %d", in.n, maxHead)
		}
		if err != nil {
			return
		}
		if method == "" || target == nil {
			t.Fatalf("no error, method %q, target %v", method, target)
		}
		path := target.EscapedPath()
		if _, ok := routes[path]; !ok {
			return
		}
		if line, _, _ := bytes.Cut(data, []byte("\n")); !bytes.Contains(line, []byte(path)) {
			t.Fatalf("request line %q reached the handler of %q", line, path)
		}
	})
}

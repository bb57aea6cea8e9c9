package status

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"time"
)

// The routes under /debug/pprof/ are what `go tool pprof` and `go tool
// trace` fetch, served from runtime/pprof and runtime/trace: every named
// profile at /debug/pprof/<name> (?debug=N for the text forms, ?gc=1 to
// collect before a heap profile), the CPU profile at profile?seconds=N
// and the execution trace at trace?seconds=N. A profile is symbolised
// where it is written, so there is no symbol or cmdline route.

// Every profile the runtime knows by name goes on the route table.
func init() {
	for _, p := range pprof.Profiles() {
		routes["/debug/pprof/"+p.Name()] = func(_ *Server, q url.Values) response {
			if p.Name() == "heap" && intParam(q, "gc", 0) > 0 {
				runtime.GC()
			}
			debug, ctype := intParam(q, "debug", 0), binaryProfile
			if debug != 0 {
				ctype = plainText
			}
			var buf bytes.Buffer
			if err := p.WriteTo(&buf, debug); err != nil {
				return errorResponse(500, err.Error())
			}
			return response{code: 200, ctype: ctype, body: buf.Bytes()}
		}
	}
}

// intParam reads a positive integer query parameter, def when it is
// absent or is not one.
func intParam(q url.Values, name string, def int) int {
	if v, err := strconv.Atoi(q.Get(name)); err == nil && v > 0 {
		return v
	}
	return def
}

// handleProfileIndex lists what the other profile routes serve.
func (s *Server) handleProfileIndex(url.Values) response {
	var buf bytes.Buffer
	buf.WriteString("/debug/pprof/<name>, ?debug=1 for text:\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&buf, "%d\t%s\n", p.Count(), p.Name())
	}
	buf.WriteString("\nprofile?seconds=30\tCPU profile\ntrace?seconds=1\texecution trace\n")
	return response{code: 200, ctype: plainText, body: buf.Bytes()}
}

func (s *Server) handleCPUProfile(q url.Values) response {
	return s.collect(pprof.StartCPUProfile, pprof.StopCPUProfile, intParam(q, "seconds", 30))
}

func (s *Server) handleExecTrace(q url.Values) response {
	return s.collect(trace.Start, trace.Stop, intParam(q, "seconds", 1))
}

// collect runs a profile that is written while it is taken: for the
// seconds asked, or until Close.
func (s *Server) collect(start func(io.Writer) error, stop func(), seconds int) response {
	var buf bytes.Buffer
	if err := start(&buf); err != nil {
		return errorResponse(500, "could not start the profile: "+err.Error())
	}
	t := time.NewTimer(time.Duration(seconds) * time.Second)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.done:
	}
	stop()
	return response{code: 200, ctype: binaryProfile, body: buf.Bytes()}
}

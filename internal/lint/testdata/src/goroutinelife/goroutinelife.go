// Fixture for the goroutinelife analyzer: shutdown-path reachability
// on spawned functions and the time.After/time.Tick-in-loop leak.
package goroutinelife

import "time"

type server struct {
	done chan struct{}
	in   chan int
}

// spinForever has no way out: the classic runaway worker.
func (s *server) spinForever() {
	for {
		work()
	}
}

// drainUntilDone exits through the done case.
func (s *server) drainUntilDone() {
	for {
		select {
		case <-s.done:
			return
		case v := <-s.in:
			use(v)
		}
	}
}

// drainUntilClosed exits when the input channel closes.
func (s *server) drainUntilClosed() {
	for v := range s.in {
		use(v)
	}
}

func (s *server) start() {
	go s.spinForever() // want "goroutine spinForever has no shutdown path"
	go s.drainUntilDone()
	go s.drainUntilClosed()
	go func() {
		for {
			select {
			case <-s.done:
				return
			default:
			}
			work()
		}
	}()
	go func() { // want "goroutine func literal has no shutdown path"
		for {
			work()
		}
	}()
}

// startPinned documents a process-lifetime worker.
//
//ring:goroutineok the stats worker lives for the whole process
func (s *server) startPinned() {
	go s.spinForever()
}

func (s *server) startPinnedInline() {
	go s.spinForever() //ring:goroutineok deliberate: killed by process exit
}

// breakLeavesSelect only leaves the select: the loop goes round again.
func (s *server) breakLeavesSelect() {
	for {
		select {
		case <-s.done:
			break
		case v := <-s.in:
			use(v)
		}
	}
}

// breakLeavesLoop names the loop, so its break ends it.
func (s *server) breakLeavesLoop() {
loop:
	for {
		select {
		case <-s.done:
			break loop
		case v := <-s.in:
			use(v)
		}
	}
}

// returnsWhenStopped exits through a return under an if.
func (s *server) returnsWhenStopped() {
	for {
		if stop() {
			return
		}
		work()
	}
}

func (s *server) startBreakers() {
	go s.breakLeavesSelect() // want "goroutine breakLeavesSelect has no shutdown path"
	go s.breakLeavesLoop()
	go s.returnsWhenStopped()
}

func stop() bool { return false }

// ---------------------------------------------------------------- timers

func (s *server) pollLeaky() {
	for {
		select {
		case <-s.done:
			return
		case <-time.After(time.Second): // want `time.After in a loop leaks a timer`
			work()
		}
	}
}

func (s *server) pollFixed() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			work()
		}
	}
}

// oneShotTimeout is fine: the timer is not in a loop.
func (s *server) oneShotTimeout() {
	select {
	case <-s.done:
	case <-time.After(time.Second):
	}
}

func work()     {}
func use(v int) {}

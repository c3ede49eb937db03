package faults

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjected is the default error returned by scripted failures.
var ErrInjected = errors.New("faults: injected failure")

// WriteOp scripts the behavior of one Write call on a wrapped Conn.
// The zero value passes the write through untouched.
type WriteOp struct {
	// Delay waits on the harness clock before acting (injected latency).
	Delay time.Duration
	// Pass is how many bytes reach the underlying conn before the op
	// takes effect: -1 (or >= len(p)) passes everything, 0 passes
	// nothing, 0 < Pass < len(p) is a partial (torn) write.
	Pass int
	// XOR, when non-zero, corrupts every passed byte (bit flips in
	// transit).
	XOR byte
	// Err is returned after the passed bytes are written. Nil with a
	// partial Pass still fails with ErrInjected — a short write must
	// not look like success.
	Err error
	// Hang blocks the write until the conn is closed (a stalled
	// collector); the write then returns Err or ErrInjected.
	Hang bool
}

// Reset is a WriteOp that drops the write entirely and reports a
// connection reset.
func Reset() WriteOp { return WriteOp{Err: ErrInjected} }

// Partial is a WriteOp that passes n bytes then fails (a torn frame).
func Partial(n int) WriteOp { return WriteOp{Pass: n} }

// Conn wraps a net.Conn with a per-write failure script. Writes consume
// script entries in order; once the script is exhausted every write
// passes through. Safe for one writer at a time (like net.Conn itself).
type Conn struct {
	net.Conn
	clock Clock

	mu     sync.Mutex
	script []WriteOp
	writes int
	closed chan struct{}
	once   sync.Once
}

// Wrap wraps conn with the given write script. clock may be nil (wall
// clock); scripted delays wait on it, so a FakeClock makes latency
// injection deterministic.
func Wrap(conn net.Conn, clock Clock, script ...WriteOp) *Conn {
	if clock == nil {
		clock = Real{}
	}
	return &Conn{Conn: conn, clock: clock, script: script, closed: make(chan struct{})}
}

// nextOp pops the script entry for this write (zero op after the
// script runs out; Pass is normalized to -1 so a zero value passes).
func (c *Conn) nextOp() WriteOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if len(c.script) == 0 {
		return WriteOp{Pass: -1}
	}
	op := c.script[0]
	c.script = c.script[1:]
	return op
}

// Writes returns how many Write calls were made.
func (c *Conn) Writes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Write implements net.Conn with the scripted behavior.
func (c *Conn) Write(p []byte) (int, error) {
	op := c.nextOp()
	if op.Delay > 0 {
		select {
		case <-c.clock.After(op.Delay):
		case <-c.closed:
			return 0, c.failErr(op)
		}
	}
	if op.Hang {
		<-c.closed
		return 0, c.failErr(op)
	}
	n := len(p)
	if op.Pass >= 0 && op.Pass < n {
		n = op.Pass
	}
	written := 0
	if n > 0 {
		buf := p[:n]
		if op.XOR != 0 {
			cp := make([]byte, n)
			for i, b := range buf {
				cp[i] = b ^ op.XOR
			}
			buf = cp
		}
		var err error
		written, err = c.Conn.Write(buf)
		if err != nil {
			return written, err
		}
	}
	if written < len(p) || op.Err != nil {
		return written, c.failErr(op)
	}
	return written, nil
}

// failErr picks the op's error, defaulting to ErrInjected.
func (c *Conn) failErr(op WriteOp) error {
	if op.Err != nil {
		return op.Err
	}
	return ErrInjected
}

// Close unblocks hung/delayed writes and closes the underlying conn.
func (c *Conn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Hang wraps conn so every read and write blocks until Close — the
// accept-then-hang collector that never services its socket.
func Hang(conn net.Conn) net.Conn { return &hangConn{Conn: conn, closed: make(chan struct{})} }

type hangConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *hangConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, ErrInjected
}

func (c *hangConn) Write(p []byte) (int, error) {
	<-c.closed
	return 0, ErrInjected
}

func (c *hangConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Listener wraps a net.Listener, rewriting each accepted conn through
// OnAccept (e.g. faults.Hang for accept-then-hang, or Wrap with a
// read-side script). A nil OnAccept passes conns through.
type Listener struct {
	net.Listener
	OnAccept func(net.Conn) net.Conn
}

// NewListener wraps ln.
func NewListener(ln net.Listener, onAccept func(net.Conn) net.Conn) *Listener {
	return &Listener{Listener: ln, OnAccept: onAccept}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil || l.OnAccept == nil {
		return conn, err
	}
	return l.OnAccept(conn), nil
}

// FlakyDialer returns a dialer that fails the first `fails` calls with
// err (ErrInjected when nil) and then delegates to next. The attempt
// count is shared across calls, so it models a collector that is down
// for a while and then comes back.
func FlakyDialer(fails int, err error, next func() (net.Conn, error)) func() (net.Conn, error) {
	if err == nil {
		err = ErrInjected
	}
	var mu sync.Mutex
	n := 0
	return func() (net.Conn, error) {
		mu.Lock()
		n++
		failing := n <= fails
		mu.Unlock()
		if failing {
			return nil, err
		}
		return next()
	}
}

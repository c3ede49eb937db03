package collector

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vapro/internal/trace"
)

// helloReadTimeout bounds how long a dialing client waits for the
// server's hello frame before treating the connection as legacy/dead.
const helloReadTimeout = 2 * time.Second

// maxShardRedirects bounds how many owner hops one dial may follow; a
// flapping map must surface as a dial error (and back off), not spin.
const maxShardRedirects = 4

// maxHelloFrame bounds the hello payload a client will buffer.
const maxHelloFrame = 1 << 20

// ShardDialer returns a Dialer for rank against a sharded server tier:
// dial any bootstrap address, read the hello's shard map, and — when
// the dialed server does not own the rank — redial the owner directly.
// The verified owner address is cached, so steady-state reconnects go
// straight to the owner; the map from every hello refreshes the cache,
// which is how a restarted shard's new address propagates (the client
// reconnects anywhere, learns the rebalanced map, and re-attaches).
func ShardDialer(rank int, bootstrap []string, met *Metrics) Dialer {
	d := &shardDialer{
		rank:      rank,
		bootstrap: append([]string(nil), bootstrap...),
		met:       met,
	}
	return d.dial
}

type shardDialer struct {
	rank      int
	bootstrap []string
	met       *Metrics

	mu    sync.Mutex
	owner string   // last verified owning address
	addrs []string // last shard map seen in a hello
}

// candidates returns the dial order: verified owner first, then the
// last map's addresses, then the bootstrap list, deduplicated.
func (d *shardDialer) candidates() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, 1+len(d.addrs)+len(d.bootstrap))
	seen := make(map[string]bool)
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	add(d.owner)
	for _, a := range d.addrs {
		add(a)
	}
	for _, a := range d.bootstrap {
		add(a)
	}
	return out
}

func (d *shardDialer) dial() (net.Conn, error) {
	var lastErr error
	for _, addr := range d.candidates() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		conn, err = d.verify(conn, addr)
		if err != nil {
			lastErr = err
			continue
		}
		return conn, nil
	}
	if lastErr == nil {
		lastErr = errors.New("collector: shard dialer has no reachable addresses")
	}
	return nil, lastErr
}

// verify reads the hello on a fresh connection and follows owner
// redirects until the connection lands on the rank's owning shard.
func (d *shardDialer) verify(conn net.Conn, addr string) (net.Conn, error) {
	for hop := 0; ; hop++ {
		_, addrs, err := readHello(conn)
		if err != nil {
			conn.Close()
			return nil, err
		}
		d.mu.Lock()
		d.addrs = append(d.addrs[:0], addrs...)
		d.mu.Unlock()
		if len(addrs) == 0 {
			conn.Close()
			return nil, errors.New("collector: hello carried an empty shard map")
		}
		ownerAddr := addrs[ShardOwner(d.rank, len(addrs))]
		if ownerAddr == "" || ownerAddr == addr {
			// Empty owner slot = the tier has not published that
			// shard's address yet; stay on this connection (the shard
			// sink delivers misrouted batches rather than losing them)
			// and re-verify on the next reconnect.
			d.mu.Lock()
			if ownerAddr == addr {
				d.owner = addr
			}
			d.mu.Unlock()
			return conn, nil
		}
		conn.Close()
		if hop >= maxShardRedirects {
			return nil, fmt.Errorf("collector: shard ownership did not settle after %d redirects", hop)
		}
		if d.met != nil {
			d.met.ShardRedirects.Inc()
		}
		next, err := net.Dial("tcp", ownerAddr)
		if err != nil {
			return nil, err
		}
		conn, addr = next, ownerAddr
	}
}

// readHello reads the single length-prefixed hello frame a shard
// server writes at the top of every connection. It reads exactly the
// frame (byte-by-byte uvarint, then the payload) — the client never
// reads again, so no byte beyond the hello may be consumed.
func readHello(conn net.Conn) (version uint64, addrs []string, err error) {
	_ = conn.SetReadDeadline(time.Now().Add(helloReadTimeout))
	defer conn.SetReadDeadline(time.Time{})
	size, err := readUvarintConn(conn)
	if err != nil {
		return 0, nil, err
	}
	if size > maxHelloFrame {
		return 0, nil, fmt.Errorf("collector: hello frame of %d bytes exceeds limit", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return 0, nil, err
	}
	return trace.DecodeHello(buf)
}

// readUvarintConn decodes a uvarint one byte at a time straight off the
// connection (no buffering that could swallow later frames).
func readUvarintConn(r io.Reader) (uint64, error) {
	var x uint64
	var s uint
	var b [1]byte
	for i := 0; i < 10; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		if b[0] < 0x80 {
			if i == 9 && b[0] > 1 {
				return 0, errors.New("collector: uvarint overflows 64 bits")
			}
			return x | uint64(b[0])<<s, nil
		}
		x |= uint64(b[0]&0x7f) << s
		s += 7
	}
	return 0, errors.New("collector: uvarint too long")
}

package proto

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"aurora/internal/metrics"
)

// Connection lifecycle constants (DESIGN.md §15.7). The client side
// gives up on an idle connection before the server side does, so a
// connection the server has timed out is never handed to a caller.
const (
	// maxIdlePerAddr caps the idle connections kept per address; a
	// connection released beyond it is closed instead.
	maxIdlePerAddr = 16
	// idleExpiry is how long a released connection stays reusable.
	idleExpiry = 15 * time.Second
	// serverIdleTimeout is how long a server waits on a kept-alive
	// connection for the next request before closing it.
	serverIdleTimeout = 2 * idleExpiry
)

// dialTimeout is the connect primitive, a seam so tests can simulate a
// slow connect deterministically and count dials.
var dialTimeout = net.DialTimeout

// idleConn is a released connection and when it was released.
type idleConn struct {
	conn  net.Conn
	since time.Time
}

// connPool holds the connections no exchange is using, per address,
// oldest first. Only connections whose last exchange ran to its protocol
// end are ever put here (callConn, Stream.Close).
type connPool struct {
	mu        sync.Mutex
	idle      map[string][]idleConn
	nextSweep time.Time
}

// idlePool is the one process-wide pool under Call and OpenStream.
var idlePool = connPool{idle: make(map[string][]idleConn)}

// countConn records one connection event: "dial" (a new connection),
// "reuse" (a pooled one handed out) or "stale" (a pooled one discarded
// unused: expired, closed by the peer, or holding bytes nobody asked for).
func countConn(event string) {
	metrics.Default.Counter("aurora_rpc_conns", metrics.L("event", event)).Inc()
}

// connect returns a connection to addr with deadline already set on it:
// the most recently released pooled one that is still usable (reused is
// true), else a fresh dial charged against the same deadline.
func connect(addr string, deadline time.Time) (conn net.Conn, reused bool, err error) {
	if conn := idlePool.get(addr, deadline); conn != nil {
		return conn, true, nil
	}
	conn, err = dial(addr, deadline)
	return conn, false, err
}

// dial opens a new connection to addr, spending at most the time left
// until deadline, and sets deadline on it.
func dial(addr string, deadline time.Time) (net.Conn, error) {
	conn, err := dialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	countConn("dial")
	if err := conn.SetDeadline(deadline); err != nil {
		//lint:ignore errcheck already failing; the deadline error is the one to report
		_ = conn.Close()
		return nil, fmt.Errorf("proto: set deadline: %w", err)
	}
	return conn, nil
}

// get checks out a pooled connection to addr, or returns nil when none
// is usable. Every candidate is validated before it is handed out: it
// must be younger than idleExpiry and a non-blocking read on it must
// report "nothing to read". EOF, an error or stray bytes mean the peer
// closed it, died, or — the case the benchmark's cluster reboots hit —
// a new server now listens on the address of the one this connection
// belonged to; such a connection is closed and the next one tried.
func (p *connPool) get(addr string, deadline time.Time) net.Conn {
	for {
		p.mu.Lock()
		list := p.idle[addr]
		if len(list) == 0 {
			p.mu.Unlock()
			return nil
		}
		ic := list[len(list)-1]
		list[len(list)-1] = idleConn{}
		p.idle[addr] = list[:len(list)-1] // emptied lists keep their array for the next put; the sweep drops them
		p.mu.Unlock()
		// The deadline goes on first: the probe goes through the
		// runtime poller, which refuses a connection whose previous
		// exchange's deadline has passed in the meantime.
		if time.Since(ic.since) < idleExpiry && ic.conn.SetDeadline(deadline) == nil && nothingToRead(ic.conn) {
			countConn("reuse")
			return ic.conn
		}
		discardStale(ic.conn)
	}
}

// put releases a connection whose exchange ended cleanly. Once per
// idleExpiry it also closes every expired connection in the pool, so
// connections to addresses nobody calls again do not accumulate.
func (p *connPool) put(addr string, conn net.Conn) {
	now := time.Now()
	var expired []net.Conn
	p.mu.Lock()
	if now.After(p.nextSweep) {
		p.nextSweep = now.Add(idleExpiry)
		expired = p.sweepLocked(now)
	}
	full := len(p.idle[addr]) >= maxIdlePerAddr
	if !full {
		p.idle[addr] = append(p.idle[addr], idleConn{conn: conn, since: now})
	}
	p.mu.Unlock()
	if full {
		//lint:ignore errcheck surplus idle connection; nothing was in flight on it
		_ = conn.Close()
	}
	for _, c := range expired {
		discardStale(c)
	}
}

// sweepLocked removes and returns every connection idle since before
// now-idleExpiry. Lists are oldest first, so the expired ones are a
// prefix.
func (p *connPool) sweepLocked(now time.Time) []net.Conn {
	var expired []net.Conn
	for addr, list := range p.idle {
		n := 0
		for n < len(list) && now.Sub(list[n].since) >= idleExpiry {
			expired = append(expired, list[n].conn)
			n++
		}
		if n == len(list) {
			delete(p.idle, addr)
			continue
		}
		rest := append(list[:0], list[n:]...)
		clear(list[len(rest):])
		p.idle[addr] = rest
	}
	return expired
}

func discardStale(conn net.Conn) {
	countConn("stale")
	//lint:ignore errcheck the connection is being thrown away unused
	_ = conn.Close()
}

// nothingToRead is the checkout probe: one non-blocking read(2) that
// must fail with EAGAIN. A healthy idle connection has nothing queued,
// because every exchange that released it consumed its last frame; a
// read that returns 0 (the peer's FIN), bytes, or any other error marks
// the connection unusable. A connection that is not a raw socket cannot
// be probed and is never reused.
func nothingToRead(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	idle := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, rerr := syscall.Read(int(fd), b[:])
		idle = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true // one attempt only: never wait for readability
	})
	return err == nil && idle
}

package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/semantics"
	"mobigate/internal/session"
)

// Source produces the origin data flow for one client session (the fixed
// sender S of Figure 3-1). The channel is drained until closed.
type Source func(request *mime.Message) <-chan *mime.Message

// Request headers of the front-end wire protocol.
const (
	// HeaderRequestStream names the MCL stream the client wants deployed.
	HeaderRequestStream = "X-Request-Stream"
	// HeaderSeq carries the per-session delivery sequence number the
	// client's distributor uses to restore order after multi-threaded
	// reverse processing.
	HeaderSeq = "X-Seq"
)

// Frontend is the TCP face of the gateway: each client connection gets its
// own deployed instance of the requested stream; origin messages flow in
// through the stream's entry port and adapted messages flow out to the
// client in MIME wire format.
type Frontend struct {
	srv    *Server
	source Source

	ln     net.Listener
	wg     sync.WaitGroup
	connID atomic.Uint64
	closed atomic.Bool

	// metricsLn is the observability endpoint's listener (nil unless
	// ServeMetrics was called); Close shuts it down with the front-end.
	metricsMu sync.Mutex
	metricsLn net.Listener

	// Shared-plane mode (EnableSharedSessions): connections become logical
	// sessions multiplexed onto per-stream gateway instance pools instead
	// of deploying one chain each.
	gwMu   sync.Mutex
	gwCfg  *SessionGatewayConfig
	gwPool map[string]*SessionGateway
}

// NewFrontend wraps a server with a TCP front-end.
func NewFrontend(srv *Server, source Source) *Frontend {
	return &Frontend{srv: srv, source: source}
}

// Listen binds the front-end and starts accepting; it returns the bound
// address (use ":0" to pick a free port).
func (f *Frontend) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.ln = ln
	f.wg.Add(1)
	go f.acceptLoop()
	return ln.Addr(), nil
}

func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := f.handleConn(conn); err != nil && !f.closed.Load() {
				if h := f.srv.opts.ErrorHandler; h != nil {
					h(fmt.Errorf("frontend: %w", err))
				}
			}
		}()
	}
}

// EntryExit derives the entry (unfed input) and exit (open output) ports of
// a compiled stream, the points where the front-end attaches the origin
// source and the client connection. Ports on instances that participate in
// the initial topology are preferred over ports of optional streamlets that
// only when-blocks wire in (like Figure 4-6's dashed entities).
func EntryExit(sc *mcl.StreamConfig) (entry, exit mcl.PortRef, err error) {
	connected := map[string]bool{}
	for _, c := range sc.Connections {
		connected[c.From.Inst] = true
		connected[c.To.Inst] = true
	}
	pick := func(refs []string) (mcl.PortRef, bool) {
		for _, r := range refs {
			if ref := splitRef(r); connected[ref.Inst] {
				return ref, true
			}
		}
		if len(refs) > 0 {
			return splitRef(refs[0]), true
		}
		return mcl.PortRef{}, false
	}
	in, ok := pick(semantics.UnfedInputs(sc))
	if !ok {
		return entry, exit, fmt.Errorf("server: stream %s has no unfed input port", sc.Name)
	}
	out, ok := pick(semantics.OpenPorts(sc))
	if !ok {
		return entry, exit, fmt.Errorf("server: stream %s has no open output port", sc.Name)
	}
	return in, out, nil
}

func splitRef(s string) mcl.PortRef {
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return mcl.PortRef{Inst: s}
	}
	return mcl.PortRef{Inst: s[:i], Port: s[i+1:]}
}

// EnableSharedSessions switches the front-end to shared-plane mode: the
// first connection requesting a stream opens a SessionGateway for it (a
// fixed instance pool), and every connection becomes a logical session on
// the pool, subject to the table's quotas and admission control. Call
// before Listen.
func (f *Frontend) EnableSharedSessions(cfg SessionGatewayConfig) {
	f.gwMu.Lock()
	f.gwCfg = &cfg
	f.gwPool = make(map[string]*SessionGateway)
	f.gwMu.Unlock()
}

// gateway lazily opens (or returns) the shared gateway for a stream; nil
// when shared-plane mode is off — or when the stream is not SessionSafe
// (a STATEFUL streamlet would correlate messages across sessions on a
// shared plane), in which case the connection falls back to the classic
// per-connection deployment. The fallback is cached as a nil entry and
// reported once through the server's error handler.
func (f *Frontend) gateway(name string) (*SessionGateway, error) {
	f.gwMu.Lock()
	defer f.gwMu.Unlock()
	if f.gwCfg == nil {
		return nil, nil
	}
	if g, ok := f.gwPool[name]; ok {
		return g, nil
	}
	if cfg := f.srv.Config(); cfg == nil || cfg.Stream(name) == nil {
		return nil, fmt.Errorf("unknown stream %q", name)
	}
	if !SessionSafe(f.srv.Config(), name) {
		f.gwPool[name] = nil
		if h := f.srv.opts.ErrorHandler; h != nil {
			h(fmt.Errorf("shared sessions: stream %q has a STATEFUL streamlet and is not session-safe; falling back to per-connection deployment", name))
		}
		return nil, nil
	}
	g, err := f.srv.OpenSessionGateway(name, *f.gwCfg)
	if err != nil {
		return nil, err
	}
	f.gwPool[name] = g
	return g, nil
}

func (f *Frontend) handleConn(conn net.Conn) error {
	defer conn.Close()
	req, err := mime.ReadMessage(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	name := req.Header(HeaderRequestStream)
	if name == "" {
		return fmt.Errorf("request lacks %s header", HeaderRequestStream)
	}
	gw, err := f.gateway(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(conn)
	if gw != nil {
		err = f.serveShared(gw, name, f.source, req, bw)
	} else {
		err = f.serveChain(name, f.source, req, bw)
	}
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// serveChain runs one session on its own deployed instance of the named
// stream: src(req) feeds the entry port and the exit port is relayed to w.
// The session ends exactly when the feed has closed and every fed message
// was delivered or counted by the chain as consumed.
func (f *Frontend) serveChain(name string, src Source, req *mime.Message, w io.Writer) error {
	cfg := f.srv.Config()
	if cfg == nil || cfg.Stream(name) == nil {
		return fmt.Errorf("unknown stream %q", name)
	}
	entry, exit, err := EntryExit(cfg.Stream(name))
	if err != nil {
		return err
	}
	alias := fmt.Sprintf("%s#%d", name, f.connID.Add(1))
	st, err := f.srv.DeployInstance(name, alias)
	if err != nil {
		return err
	}
	defer func() { _ = f.srv.Undeploy(alias) }()
	mSessionsTotal.Inc()
	mSessionsActive.Add(1)
	defer mSessionsActive.Add(-1)

	inlet, err := st.OpenInlet(entry, 0)
	if err != nil {
		return err
	}
	outlet, err := st.OpenOutlet(exit)
	if err != nil {
		return err
	}
	var fed atomic.Int64
	send := func(m *mime.Message) error {
		err := inlet.Send(m)
		if err == nil {
			fed.Add(1)
		}
		return err
	}
	r := &relay{w: w}
	return r.run(src(req), send, outlet.TryReceive, nil, func() int64 {
		return fed.Load() - r.sent - st.Consumed()
	})
}

// serveShared serves one session on the stream's shared gateway. SendWait
// makes the session's quota backpressure; load sheds drop the message, not
// the session. Outstanding cannot see messages the shared chain consumed,
// so running out the drain grace is a normal end here, followed by
// Disconnect's barrier, a final sweep and an Abort reconcile.
func (f *Frontend) serveShared(gw *SessionGateway, name string, src Source, req *mime.Message, w io.Writer) error {
	sessID := fmt.Sprintf("%s#%d", name, f.connID.Add(1))
	sess, deliveries, err := gw.Connect(sessID)
	if err != nil {
		return fmt.Errorf("session %s: %w", sessID, err)
	}
	mSessionsTotal.Inc()
	mSessionsActive.Add(1)
	defer mSessionsActive.Add(-1)

	send := func(m *mime.Message) error {
		if err := gw.SendWait(sess, m); err != session.ErrQuota && err != session.ErrShed {
			return err
		}
		return nil
	}
	r := &relay{w: w}
	err = r.run(src(req), send, nil, deliveries, func() int64 {
		return sess.Outstanding() + int64(len(deliveries))
	})
	if errors.Is(err, errUnaccounted) {
		err = nil
	}
	// Disconnect waits out the gateway's in-flight handoff, so one sweep
	// of the buffered channel then sees everything ever routed.
	gw.Disconnect(sessID)
	for len(deliveries) > 0 {
		if m := <-deliveries; err == nil {
			err = r.write(m)
		}
	}
	sess.Abort() // no-op unless the chain consumed admitted messages
	return err
}

// drainGrace is how long a relay waits on accounting that has stopped moving.
const drainGrace = 2 * time.Second

var errUnaccounted = errors.New("relay: drain grace expired with messages unaccounted for")

// relay writes one session's deliveries to the client, stamping each with
// the next X-Seq.
type relay struct {
	w    io.Writer
	sent int64
}

func (r *relay) write(m *mime.Message) error {
	m.SetHeader(HeaderSeq, strconv.FormatInt(r.sent, 10))
	if _, err := m.WriteToV(r.w); err != nil {
		return err
	}
	r.sent++
	return nil
}

// run feeds src through send on its own goroutine and relays deliveries,
// taken from next without blocking or from ready as they exist (either may
// be nil; the relay polls every 200µs), until the feed has ended and pending
// reports nothing unaccounted for. Should pending then sit nonzero and
// unchanged, with nothing delivered, for drainGrace, run returns errUnaccounted.
func (r *relay) run(src <-chan *mime.Message, send func(*mime.Message) error, next func() (*mime.Message, error), ready <-chan *mime.Message, pending func() int64) error {
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		for m := range src {
			if send(m) != nil {
				return
			}
		}
	}()
	closed, last, quiet := false, int64(0), time.Time{}
	for {
		var m *mime.Message
		var err error
		if next != nil {
			m, err = next()
		}
		if m == nil && err == nil {
			if closed {
				switch n := pending(); {
				case n == 0:
					return nil
				case quiet.IsZero() || n != last:
					last, quiet = n, time.Now()
				case time.Since(quiet) > drainGrace:
					return fmt.Errorf("%w: %d", errUnaccounted, n)
				}
			}
			select {
			case m = <-ready:
			case <-feedDone:
				closed, feedDone = true, nil
			case <-time.After(200 * time.Microsecond):
			}
		}
		if m != nil && err == nil {
			err = r.write(m)
			quiet = time.Time{}
		}
		if err != nil {
			return err
		}
	}
}

// Close stops accepting and waits for in-flight connections. The metrics
// endpoint, when serving, is shut down as well.
func (f *Frontend) Close() error {
	f.closed.Store(true)
	var err error
	if f.ln != nil {
		err = f.ln.Close()
	}
	f.metricsMu.Lock()
	mln := f.metricsLn
	f.metricsLn = nil
	f.metricsMu.Unlock()
	if mln != nil {
		_ = mln.Close()
	}
	f.wg.Wait()
	f.gwMu.Lock()
	pool := f.gwPool
	f.gwPool = nil
	f.gwMu.Unlock()
	for _, g := range pool {
		if g != nil {
			g.Close()
		}
	}
	return err
}

// ServeRequest runs one in-process session without TCP: origin messages
// from src flow through a fresh instance of the named stream, and adapted
// messages are written to w in wire format. Used by tests and the CLI's
// one-shot mode.
func (f *Frontend) ServeRequest(name string, src <-chan *mime.Message, w io.Writer) error {
	return f.serveChain(name, func(*mime.Message) <-chan *mime.Message { return src }, nil, w)
}

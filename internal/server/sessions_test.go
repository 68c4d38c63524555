package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/client"
	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/session"
	"mobigate/internal/streamlet"
)

// sessionScript is a plain relay chain: shared-plane tests need a stream
// with no cross-session stateful behavior, so every message comes out
// exactly once with its session stamp intact.
const sessionScript = `
streamlet relay {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "bench/redirector"; }
}
main stream shared {
	streamlet a = new-streamlet (relay);
	streamlet b = new-streamlet (relay);
	connect (a.po, b.pi);
}
`

func newSessionServer(t *testing.T) *Server {
	t.Helper()
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) { t.Logf("server error: %v", err) }})
	t.Cleanup(srv.Close)
	if err := srv.LoadScript(sessionScript); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestSessionGatewayDemux drives three logical sessions through one shared
// two-instance pool and requires exact per-session delivery: every message
// comes back on its own session's channel, none cross over.
func TestSessionGatewayDemux(t *testing.T) {
	srv := newSessionServer(t)
	gw, err := srv.OpenSessionGateway("shared", SessionGatewayConfig{Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if got := len(srv.Deployed()); got != 2 {
		t.Fatalf("pool deployed %d instances, want 2", got)
	}

	const sessions, perSession = 3, 20
	type sub struct {
		sess *session.Session
		ch   <-chan *mime.Message
	}
	subs := make([]sub, sessions)
	for i := range subs {
		s, ch, err := gw.Connect(fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub{sess: s, ch: ch}
	}
	for i, sb := range subs {
		for j := 0; j < perSession; j++ {
			m := mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("s%d-m%d", i, j)))
			if err := gw.Send(sb.sess, m); err != nil {
				t.Fatalf("session %d message %d: %v", i, j, err)
			}
		}
	}
	for i, sb := range subs {
		for j := 0; j < perSession; j++ {
			select {
			case m := <-sb.ch:
				if want := fmt.Sprintf("s%d-", i); !strings.HasPrefix(string(m.Body()), want) {
					t.Fatalf("session %d received %q: cross-session delivery", i, m.Body())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("session %d: delivery %d never arrived", i, j)
			}
		}
	}
	st := gw.Table().Stats()
	if st.Posted != sessions*perSession || st.Delivered != sessions*perSession {
		t.Fatalf("conservation: %+v", st)
	}
	for i := range subs {
		gw.Disconnect(fmt.Sprintf("client-%d", i))
	}
	if gw.Table().Len() != 0 || gw.Table().Draining() != 0 {
		t.Fatalf("table not empty after disconnects: live=%d draining=%d",
			gw.Table().Len(), gw.Table().Draining())
	}
}

// TestSharedSessionsTCP runs concurrent TCP clients against a front-end in
// shared-plane mode: every client gets its own flow back, while the server
// deploys only the fixed pool, not one chain per connection.
func TestSharedSessionsTCP(t *testing.T) {
	srv := newSessionServer(t)
	bodies := [][]byte{services.GenText(512, 1), services.GenText(768, 2), services.GenText(300, 3)}
	fe := NewFrontend(srv, sourceOf(bodies))
	fe.EnableSharedSessions(SessionGatewayConfig{Instances: 2})
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			req := mime.NewMessage(mime.Wildcard, nil)
			req.SetHeader(HeaderRequestStream, "shared")
			if _, err := req.WriteTo(conn); err != nil {
				t.Error(err)
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.CloseWrite()
			}
			peers := streamlet.NewDirectory()
			services.RegisterClientPeers(peers)
			var count atomic.Int64
			mc := client.New(client.Options{Peers: peers}, func(*mime.Message) { count.Add(1) })
			if err := mc.ServeConn(conn); err != nil {
				t.Error(err)
				return
			}
			if int(count.Load()) != len(bodies) {
				t.Errorf("session got %d messages, want %d", count.Load(), len(bodies))
			}
		}()
	}
	wg.Wait()

	// The pool is the only deployment: connections did not deploy chains.
	deployed := srv.Deployed()
	if len(deployed) != 2 {
		t.Fatalf("deployed = %v, want exactly the 2-instance pool", deployed)
	}
	for _, alias := range deployed {
		if !strings.Contains(alias, "~shared") {
			t.Fatalf("unexpected per-connection deployment %q", alias)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Deployed(); len(got) != 0 {
		t.Fatalf("pool leaked after close: %v", got)
	}
}

// TestSharedSessionsAdmissionCap: with MaxSessions 1, a second concurrent
// connection is refused by the admission controller instead of degrading
// the first one.
func TestSharedSessionsAdmissionCap(t *testing.T) {
	srv := newSessionServer(t)
	// A slow source keeps the first session occupying the table while the
	// second connects.
	release := make(chan struct{})
	src := func(req *mime.Message) <-chan *mime.Message {
		ch := make(chan *mime.Message)
		go func() {
			defer close(ch)
			ch <- mime.NewMessage(services.TypePlainText, []byte("first"))
			<-release
		}()
		return ch
	}
	fe := NewFrontend(srv, src)
	fe.EnableSharedSessions(SessionGatewayConfig{
		Instances: 1,
		Session:   session.Config{MaxSessions: 1},
	})
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	defer close(release)

	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			return nil, err
		}
		req := mime.NewMessage(mime.Wildcard, nil)
		req.SetHeader(HeaderRequestStream, "shared")
		if _, err := req.WriteTo(conn); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Wait until the first session holds the only table slot.
	if !waitUntil(func() bool {
		g, _ := fe.gateway("shared")
		return g != nil && g.Table().Len() == 1
	}) {
		t.Fatal("first session never admitted")
	}

	second, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// The refused connection is closed by the server without any delivery.
	buf := make([]byte, 1)
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, _ := second.Read(buf); n != 0 {
		t.Fatalf("shed session received %d bytes", n)
	}
	g, _ := fe.gateway("shared")
	if st := g.Table().Stats(); st.AdmissionShed == 0 {
		t.Fatalf("admission shed not counted: %+v", st)
	}
}

// TestSessionSafe exercises the session-transparency analysis: a stream is
// shareable only when every streamlet — including those reached through
// composite instances — is STATELESS. A STATEFUL streamlet (cache, merge)
// correlates messages across its inputs and would pair different sessions'
// traffic on a shared plane.
func TestSessionSafe(t *testing.T) {
	const script = `
streamlet relay {
	port { in pi : text; out po : text; }
	attribute { type = STATELESS; library = "bench/redirector"; }
}
streamlet keeper {
	port { in pi : text; out po : text; }
	attribute { type = STATEFUL; library = "general/cache"; }
}
stream innerOK {
	streamlet x = new-streamlet (relay);
	streamlet y = new-streamlet (relay);
	connect (x.po, y.pi);
}
stream innerBad {
	streamlet k = new-streamlet (keeper);
	streamlet c = new-streamlet (relay);
	connect (k.po, c.pi);
}
stream viaOK {
	streamlet u = new-streamlet (relay);
	streamlet v = new-streamlet (innerOK);
	connect (u.po, v.x_pi);
}
main stream viaBad {
	streamlet u = new-streamlet (relay);
	streamlet v = new-streamlet (innerBad);
	connect (u.po, v.k_pi);
}
`
	cfg, err := mcl.Compile(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{
		"innerOK":  true,
		"innerBad": false,
		"viaOK":    true, // composite judged by its backing stream, not its synthesized stateful decl
		"viaBad":   false,
		"missing":  false,
	} {
		if got := SessionSafe(cfg, name); got != want {
			t.Errorf("SessionSafe(%s) = %v, want %v", name, got, want)
		}
	}
	if SessionSafe(nil, "innerOK") {
		t.Error("SessionSafe(nil config) = true")
	}
}

// TestSharedSessionsStatefulFallback enables shared-plane mode on a stream
// whose chain contains a STATEFUL cache. The gateway must refuse to share
// it (sharing would mix sessions through the cache) and the front-end must
// fall back to per-connection deployment — the client still receives the
// complete flow.
func TestSharedSessionsStatefulFallback(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	var fellBack atomic.Bool
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) {
		if strings.Contains(err.Error(), "not session-safe") {
			fellBack.Store(true)
		}
		t.Logf("server error: %v", err)
	}})
	t.Cleanup(srv.Close)
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.OpenSessionGateway("webflow", SessionGatewayConfig{Instances: 2}); err == nil {
		t.Fatal("OpenSessionGateway accepted a stream with a STATEFUL streamlet")
	} else if !strings.Contains(err.Error(), "not session-safe") {
		t.Fatalf("unexpected refusal: %v", err)
	}

	const n = 12
	var bodies [][]byte
	for i := 0; i < n; i++ {
		bodies = append(bodies, services.GenText(600+31*i, int64(i)))
	}
	fe := NewFrontend(srv, sourceOf(bodies))
	fe.EnableSharedSessions(SessionGatewayConfig{Instances: 2})
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := mime.NewMessage(mime.Wildcard, nil)
	req.SetHeader(HeaderRequestStream, "webflow")
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}

	peers := streamlet.NewDirectory()
	services.RegisterClientPeers(peers)
	var got atomic.Int64
	mc := client.New(client.Options{Peers: peers}, func(m *mime.Message) { got.Add(1) })
	if err := mc.ServeConn(conn); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("client received %d messages, want %d", got.Load(), n)
	}
	if !fellBack.Load() {
		t.Error("fallback was never reported through the error handler")
	}
	// Per-connection fallback deploys no shared aliases, and the session's
	// own instance is undeployed once the connection ends.
	waitUntil(func() bool { return len(srv.Deployed()) == 0 })
	for _, alias := range srv.Deployed() {
		if strings.Contains(alias, "~shared") {
			t.Fatalf("shared instance deployed for stateful stream: %s", alias)
		}
	}
	if got := srv.Deployed(); len(got) != 0 {
		t.Errorf("sessions leaked: %v", got)
	}
}

// TestSharedSessionsQuotaBackpressure: a flow far larger than the
// per-session quota must still arrive in full. The feeder's SendWait
// turns quota exhaustion into backpressure — it stalls until deliveries
// release reservations — so a cooperative client loses nothing and the
// quota-shed counter never moves.
func TestSharedSessionsQuotaBackpressure(t *testing.T) {
	srv := newSessionServer(t)
	const n = 30
	var bodies [][]byte
	for i := 0; i < n; i++ {
		bodies = append(bodies, services.GenText(1024, int64(i)))
	}
	fe := NewFrontend(srv, sourceOf(bodies))
	// Quota admits at most 4 messages / 4 KiB outstanding: the 30 KiB flow
	// must be paced by releases, not shed.
	fe.EnableSharedSessions(SessionGatewayConfig{
		Instances: 1,
		Session:   session.Config{QuotaBytes: 4 << 10, QuotaMessages: 4},
	})
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := mime.NewMessage(mime.Wildcard, nil)
	req.SetHeader(HeaderRequestStream, "shared")
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	peers := streamlet.NewDirectory()
	services.RegisterClientPeers(peers)
	var count atomic.Int64
	mc := client.New(client.Options{Peers: peers}, func(*mime.Message) { count.Add(1) })
	if err := mc.ServeConn(conn); err != nil {
		t.Fatal(err)
	}
	if int(count.Load()) != n {
		t.Fatalf("client received %d messages, want %d", count.Load(), n)
	}
	g, err := fe.gateway("shared")
	if err != nil || g == nil {
		t.Fatalf("gateway: %v", err)
	}
	st := g.Table().Stats()
	if st.QuotaShed != 0 || st.LoadShed != 0 {
		t.Fatalf("cooperative session was shed: %+v", st)
	}
	if st.Posted != n || st.Delivered != n {
		t.Fatalf("conservation: %+v", st)
	}
}

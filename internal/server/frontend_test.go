package server

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/client"
	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// webScript compresses the flow; the client must transparently decompress.
const webScript = `
streamlet compressor {
	port { in pi : text; out po : text; }
	attribute { type = STATELESS; library = "text/compress"; }
}
streamlet cache {
	port { in pi : text; out po : text; }
	attribute { type = STATEFUL; library = "general/cache"; }
}
main stream webflow {
	streamlet k = new-streamlet (cache);
	streamlet c = new-streamlet (compressor);
	connect (k.po, c.pi);
}
`

func sourceOf(bodies [][]byte) Source {
	return func(req *mime.Message) <-chan *mime.Message {
		ch := make(chan *mime.Message)
		go func() {
			defer close(ch)
			for _, b := range bodies {
				ch <- mime.NewMessage(services.TypePlainText, append([]byte(nil), b...))
			}
		}()
		return ch
	}
}

// waitUntil polls cond until it holds or five seconds pass, reporting
// whether it held.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func TestEndToEndTCPSession(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) { t.Log(err) }})
	defer srv.Close()
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}

	const n = 15
	var bodies [][]byte
	for i := 0; i < n; i++ {
		bodies = append(bodies, services.GenText(1024+37*i, int64(i)))
	}
	fe := NewFrontend(srv, sourceOf(bodies))
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
	var mu sync.Mutex
	var got [][]byte
	mc := client.New(client.Options{Peers: peers}, func(m *mime.Message) {
		mu.Lock()
		got = append(got, m.Body())
		mu.Unlock()
	})
	if err := mc.ServeConn(conn); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("client received %d messages, want %d", len(got), n)
	}
	want := map[string]bool{}
	for _, b := range bodies {
		want[string(b)] = true
	}
	for _, b := range got {
		if !want[string(b)] {
			t.Error("client received corrupted body")
		}
	}
	// Session cleaned up.
	if !waitUntil(func() bool { return len(srv.Deployed()) == 0 }) {
		t.Errorf("sessions leaked: %v", srv.Deployed())
	}
}

func TestConcurrentTCPSessions(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) { t.Logf("server error: %v", err) }})
	defer srv.Close()
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{services.GenText(512, 1), services.GenText(768, 2)}
	fe := NewFrontend(srv, sourceOf(bodies))
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
			req.SetHeader(HeaderRequestStream, "webflow")
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
				t.Errorf("session got %d messages", count.Load())
			}
		}()
	}
	wg.Wait()
}

func TestServeRequestInProcess(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	srv := New(Options{Directory: dir})
	defer srv.Close()
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(srv, nil)

	src := make(chan *mime.Message, 3)
	for i := 0; i < 3; i++ {
		src <- mime.NewMessage(services.TypePlainText, services.GenText(256, int64(i)))
	}
	close(src)
	var buf bytes.Buffer
	if err := fe.ServeRequest("webflow", src, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	if err := fe.ServeRequest("ghost", nil, &buf); err == nil {
		t.Error("unknown stream accepted")
	}
}

func TestHandleConnErrors(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	var mu sync.Mutex
	var errs []error
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}})
	defer srv.Close()
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(srv, sourceOf(nil))
	addr, err := fe.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	// Request with an unknown stream name.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	req := mime.NewMessage(mime.Wildcard, nil)
	req.SetHeader(HeaderRequestStream, "nonexistent")
	_, _ = req.WriteTo(conn)
	conn.Close()

	if !waitUntil(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(errs) > 0
	}) {
		t.Error("bad request produced no error")
	}
}

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"testing"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// relayScript has one stream per way a chain can change the message count:
// pass keeps it, fanout doubles it (on the queued, unfused path), and
// filter drops every input whose body starts with "skip" (on a fused hop).
const relayScript = `
streamlet relay {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "bench/redirector"; }
}
streamlet twice {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "test/twice"; fuse = off; }
}
streamlet skip {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "test/skip"; }
}
main stream pass {
	streamlet a = new-streamlet (relay);
	streamlet b = new-streamlet (relay);
	connect (a.po, b.pi);
}
stream fanout {
	streamlet a = new-streamlet (relay);
	streamlet t = new-streamlet (twice);
	connect (a.po, t.pi);
}
stream filter {
	streamlet a = new-streamlet (relay);
	streamlet s = new-streamlet (skip);
	connect (a.po, s.pi);
}
`

func newRelayServer(t *testing.T) *Server {
	t.Helper()
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	dir.Register("test/twice", func() streamlet.Processor {
		return streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
			return []streamlet.Emission{{Msg: in.Msg}, {Msg: in.Msg.Clone()}}, nil
		})
	})
	dir.Register("test/skip", func() streamlet.Processor {
		return streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
			if bytes.HasPrefix(in.Msg.Body(), []byte("skip")) {
				return nil, nil
			}
			return []streamlet.Emission{{Msg: in.Msg}}, nil
		})
	})
	srv := New(Options{Directory: dir, ErrorHandler: func(err error) { t.Logf("server error: %v", err) }})
	t.Cleanup(srv.Close)
	if err := srv.LoadScript(relayScript); err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveTCP runs one client session against fe over loopback and returns
// everything the server wrote before closing the connection.
func serveTCP(t *testing.T, fe *Frontend, stream string) []byte {
	t.Helper()
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
	req.SetHeader(HeaderRequestStream, stream)
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// relayEntries are the front end's three entry points. Each serves bodies
// through the named stream with a source that closes right after its last
// message and returns the client's byte stream.
var relayEntries = []struct {
	name   string
	shared bool
	serve  func(t *testing.T, srv *Server, stream string, bodies [][]byte) []byte
}{
	{"per-connection", false, func(t *testing.T, srv *Server, stream string, bodies [][]byte) []byte {
		return serveTCP(t, NewFrontend(srv, sourceOf(bodies)), stream)
	}},
	{"shared", true, func(t *testing.T, srv *Server, stream string, bodies [][]byte) []byte {
		fe := NewFrontend(srv, sourceOf(bodies))
		fe.EnableSharedSessions(SessionGatewayConfig{Instances: 1})
		if g, err := fe.gateway(stream); err != nil || g == nil {
			t.Fatalf("no shared gateway for %s: %v", stream, err)
		}
		return serveTCP(t, fe, stream)
	}},
	{"ServeRequest", false, func(t *testing.T, srv *Server, stream string, bodies [][]byte) []byte {
		src := make(chan *mime.Message, len(bodies))
		for _, b := range bodies {
			src <- mime.NewMessage(services.TypePlainText, append([]byte(nil), b...))
		}
		close(src)
		var buf bytes.Buffer
		if err := NewFrontend(srv, nil).ServeRequest(stream, src, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}},
}

// TestRelayEndsOnExactCount drives every entry point through chains that
// keep, multiply and shrink the message count. The session must deliver
// exactly what the chain emits, stamp every delivery (the final sweep's
// included) with the next X-Seq, and — where the chain's count is exact —
// end without waiting out the drain grace.
func TestRelayEndsOnExactCount(t *testing.T) {
	const n = 100
	bodies := make([][]byte, n)
	for i := range bodies {
		prefix := "keep"
		if i%3 == 0 {
			prefix = "skip"
		}
		bodies[i] = []byte(fmt.Sprintf("%s-%03d", prefix, i))
	}
	want := map[string]func() []string{
		"pass": func() []string { return bodyStrings(bodies) },
		"fanout": func() []string {
			return append(bodyStrings(bodies), bodyStrings(bodies)...)
		},
		"filter": func() []string {
			var keep []string
			for _, b := range bodyStrings(bodies) {
				if b[:4] == "keep" {
					keep = append(keep, b)
				}
			}
			return keep
		},
	}
	for _, e := range relayEntries {
		for _, stream := range []string{"pass", "fanout", "filter"} {
			if e.shared && stream == "fanout" {
				continue // shared quotas release once per admitted message
			}
			t.Run(e.name+"/"+stream, func(t *testing.T) {
				t.Parallel() // the shared filter case sits out the drain grace
				srv := newRelayServer(t)
				start := time.Now()
				out := e.serve(t, srv, stream, bodies)
				took := time.Since(start)

				var got []string
				br := bufio.NewReader(bytes.NewReader(out))
				for {
					m, err := mime.ReadMessage(br)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("delivery %d: %v", len(got), err)
					}
					if seq := m.Header(HeaderSeq); seq != strconv.Itoa(len(got)) {
						t.Fatalf("delivery %d carries %s %q", len(got), HeaderSeq, seq)
					}
					got = append(got, string(m.Body()))
				}
				exp := want[stream]()
				sort.Strings(got)
				sort.Strings(exp)
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("delivered %d messages, want %d", len(got), len(exp))
				}
				if !e.shared && took > drainGrace/2 {
					t.Errorf("session took %v to end", took)
				}
			})
		}
	}
}

func bodyStrings(bodies [][]byte) []string {
	s := make([]string, len(bodies))
	for i, b := range bodies {
		s[i] = string(b)
	}
	return s
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
	"mobigate/internal/services"
	"mobigate/internal/session"
	"mobigate/internal/streamlet"
)

// settleHealthz polls /healthz until it reports 200 (each GET is one model
// evaluation, so a degraded residue from earlier tests recovers here).
func settleHealthz(t *testing.T, base string) {
	t.Helper()
	if !waitUntil(func() bool {
		code, _ := httpGet(t, base+"/healthz")
		return code == http.StatusOK
	}) {
		t.Fatal("healthz never settled to 200")
	}
}

// TestHealthzDegradeRecover: a moving failure counter flips /healthz to
// 503 naming the component; clean evaluations bring it back to 200.
func TestHealthzDegradeRecover(t *testing.T) {
	ts := httptest.NewServer(NewMetricsHandler(nil))
	defer ts.Close()
	settleHealthz(t, ts.URL)

	// One queue drop between evaluations degrades the queues component.
	obs.DefaultCounter(obs.MQueueDropTotal).Inc()
	code, body := httpGet(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz after a queue drop = %d, want 503", code)
	}
	var snap obs.HealthSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/healthz body not JSON: %v", err)
	}
	if snap.Healthy {
		t.Fatalf("503 with healthy=true: %s", body)
	}
	queuesDegraded := false
	for _, c := range snap.Components {
		if c.Name == "queues" && !c.Healthy && c.Reason != "" {
			queuesDegraded = true
		}
	}
	if !queuesDegraded {
		t.Fatalf("queues component not named degraded: %s", body)
	}

	settleHealthz(t, ts.URL)
}

// TestSessionsEndpoint: /sessions serves the sampler snapshot and bounds
// the top lists by ?k.
func TestSessionsEndpoint(t *testing.T) {
	ts := httptest.NewServer(NewMetricsHandler(nil))
	defer ts.Close()
	code, body := httpGet(t, ts.URL+"/sessions?k=3")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions = %d", code)
	}
	var snap obs.SessionStatsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/sessions body not JSON: %v", err)
	}
	if snap.SampleRate <= 0 || snap.SlotCap <= 0 {
		t.Fatalf("bad sampler config in snapshot: %+v", snap)
	}
	if len(snap.TopBytes) > 3 || len(snap.TopSheds) > 3 || len(snap.TopViolations) > 3 {
		t.Fatalf("?k=3 not honored: %d/%d/%d entries",
			len(snap.TopBytes), len(snap.TopSheds), len(snap.TopViolations))
	}
	if code, _ := httpGet(t, ts.URL+"/sessions?k=bogus"); code != http.StatusBadRequest {
		t.Fatalf("GET /sessions?k=bogus = %d, want 400", code)
	}
}

// readSSEFrame reads one "event:"+"data:" frame from an SSE stream.
func readSSEFrame(br *bufio.Reader) (event string, data string, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return event, data, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && data != "":
			return event, data, nil
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// TestWatchStream: the first frame is a full registry snapshot, later
// frames are deltas restricted to changed series.
func TestWatchStream(t *testing.T) {
	ts := httptest.NewServer(NewMetricsHandler(nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/watch?interval=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	event, data, err := readSSEFrame(br)
	if err != nil || event != "full" {
		t.Fatalf("first frame: event=%q err=%v", event, err)
	}
	var full watchFrame
	if err := json.Unmarshal([]byte(data), &full); err != nil {
		t.Fatalf("full frame not JSON: %v", err)
	}
	if len(full.Series) == 0 {
		t.Fatal("full frame carries no series")
	}
	if _, ok := full.Series[obs.MGoHeapBytes]; !ok {
		t.Fatalf("full frame missing %s", obs.MGoHeapBytes)
	}
	if len(full.Health.Components) == 0 {
		t.Fatal("full frame missing health components")
	}

	// Move exactly one counter; it must show up in a delta frame, and deltas
	// must stay smaller than the full frame (changed series only).
	obs.DefaultCounter(obs.MQueuePostTotal).Inc()
	for i := 0; i < 20; i++ {
		event, data, err = readSSEFrame(br)
		if err != nil {
			t.Fatalf("delta frame: %v", err)
		}
		if event != "delta" {
			t.Fatalf("second frame event %q", event)
		}
		var delta watchFrame
		if err := json.Unmarshal([]byte(data), &delta); err != nil {
			t.Fatalf("delta frame not JSON: %v", err)
		}
		if len(delta.Series) >= len(full.Series) {
			t.Fatalf("delta carries %d series, full carried %d", len(delta.Series), len(full.Series))
		}
		if _, ok := delta.Series[obs.MQueuePostTotal]; ok {
			return // the moved counter arrived in a delta
		}
	}
	t.Fatal("moved counter never appeared in a delta frame")
}

// TestWatchHealthzConcurrentChurn (S4): /watch subscribers connecting and
// cancelling, /healthz evaluations, and session churn all run concurrently
// under -race.
func TestWatchHealthzConcurrentChurn(t *testing.T) {
	ts := httptest.NewServer(NewMetricsHandler(nil))
	defer ts.Close()

	plane := session.NewPlane("watch-race-plane",
		queue.New("watch-race-q", queue.Options{CapacityBytes: 1 << 22}))
	tbl, err := session.NewTable(session.Config{}, plane)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Rounds each kind of worker completed; the run lasts until all three
	// have overlapped for a while.
	var churned, watched, scraped atomic.Int64

	// Session churn: connect, post/fetch/release, disconnect.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := plane.Queue()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := "churn-" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				s, err := tbl.Connect(id)
				if err != nil {
					continue
				}
				if err := s.Post("m", 128, nil); err == nil {
					if _, ok := q.TryFetch(); ok {
						q.Ack()
					}
					s.Release(128, int64(time.Microsecond))
				}
				tbl.Disconnect(id)
				churned.Add(1)
			}
		}(g)
	}

	// Watch subscribers: subscribe, read a little, cancel.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/watch?interval=50ms", nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					br := bufio.NewReader(resp.Body)
					_, _, _ = readSSEFrame(br)
					resp.Body.Close()
				}
				cancel()
				watched.Add(1)
			}
		}()
	}

	// Healthz + sessions scrapers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r1, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					r1.Body.Close()
				}
				r2, err := http.Get(ts.URL + "/sessions")
				if err == nil {
					r2.Body.Close()
				}
				scraped.Add(1)
			}
		}()
	}

	ran := waitUntil(func() bool {
		return churned.Load() >= 100 && watched.Load() >= 16 && scraped.Load() >= 16
	})
	close(stop)
	wg.Wait()
	if !ran {
		t.Fatalf("workers stalled: %d churn, %d watch, %d scrape rounds",
			churned.Load(), watched.Load(), scraped.Load())
	}

	// Handlers notice the cancelled contexts asynchronously; give the
	// gauge a moment to drain back to zero.
	g := obs.DefaultIntGauge(obs.MWatchClients)
	if !waitUntil(func() bool { return g.Value() == 0 }) {
		t.Fatalf("watch clients gauge %d after all subscribers left", g.Value())
	}
}

// TestObservabilityOutputDeterministic (S2): with the gateway quiesced,
// repeated scrapes of /trace, /trace/<session>, and /streams are
// byte-identical — ordering never depends on map iteration.
func TestObservabilityOutputDeterministic(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	srv := New(Options{Directory: dir})
	defer srv.Close()
	if err := srv.LoadScript(webScript); err != nil {
		t.Fatal(err)
	}
	fe := NewFrontend(srv, nil)
	maddr, err := fe.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	base := "http://" + maddr.String()

	// Several sessions so the listings have multiple entries to order.
	for i := 0; i < 3; i++ {
		src := make(chan *mime.Message, 2)
		src <- mime.NewMessage(services.TypePlainText, services.GenText(128, int64(i)))
		close(src)
		var sink bytes.Buffer
		if err := fe.ServeRequest("webflow", src, &sink); err != nil {
			t.Fatal(err)
		}
	}

	paths := []string{"/trace", "/streams"}
	var listing struct {
		Sessions []string `json:"sessions"`
	}
	if _, body := httpGet(t, base+"/trace"); true {
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatal(err)
		}
	}
	if len(listing.Sessions) < 3 {
		t.Fatalf("want >= 3 trace sessions, got %v", listing.Sessions)
	}
	paths = append(paths, "/trace/"+listing.Sessions[0])

	for _, p := range paths {
		_, first := httpGet(t, base+p)
		for i := 0; i < 5; i++ {
			_, again := httpGet(t, base+p)
			if again != first {
				t.Fatalf("%s scrape %d differs:\n--- first\n%s\n--- again\n%s", p, i, first, again)
			}
		}
	}
}

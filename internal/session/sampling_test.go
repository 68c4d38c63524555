package session

import (
	"strconv"
	"testing"
	"time"

	"mobigate/internal/obs"
)

// connectSampled connects ids until the shared sampler selects one.
func connectSampled(t *testing.T, tbl *Table, prefix string) *Session {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		s, err := tbl.Connect(prefix + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		if s.Sampled() {
			return s
		}
		tbl.Disconnect(s.ID())
	}
	t.Fatal("sampler selected none of 10k candidate ids")
	return nil
}

// TestSampledSessionSLO: a sampled session's delivery latencies surface on
// the /sessions snapshot with per-session quantiles and edge-triggered
// violations.
func TestSampledSessionSLO(t *testing.T) {
	tbl, ps := newTable(t, Config{SLOBudget: time.Millisecond}, 1)
	s := connectSampled(t, tbl, "slo-")
	q := ps[0].Queue()

	pump := func(latency int64) {
		if err := s.Post("m", 64, nil); err != nil {
			t.Fatal(err)
		}
		_, ok := q.TryFetch()
		if !ok {
			t.Fatal("posted message not in plane queue")
		}
		q.Ack()
		s.Release(64, latency)
	}

	before := obs.DefaultCounter(obs.MSessionSLOViolationsTotal).Value()
	for i := 0; i < 50; i++ {
		pump(int64(100_000)) // 100µs: within the 1ms budget
	}
	pump(int64(5 * time.Millisecond)) // over budget: one edge violation
	pump(int64(5 * time.Millisecond)) // still over: no new edge
	if got := obs.DefaultCounter(obs.MSessionSLOViolationsTotal).Value() - before; got != 1 {
		t.Fatalf("session SLO violations: %d, want 1 (edge-triggered)", got)
	}

	snap := obs.SessionStats().Snapshot(0)
	var sample *obs.SessionSLOSample
	for i := range snap.Samples {
		if snap.Samples[i].ID == s.ID() {
			sample = &snap.Samples[i]
		}
	}
	if sample == nil {
		t.Fatalf("sampled session %s missing from snapshot", s.ID())
	}
	if sample.Count != 52 || sample.P50Ns != 100_000 || sample.Violations != 1 || !sample.InViolation {
		t.Fatalf("sample: %+v", sample)
	}

	// The violating session also shows in the heavy-hitter violation list.
	found := false
	for _, h := range snap.TopViolations {
		if h.ID == s.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("session missing from topViolations: %+v", snap.TopViolations)
	}
}

// TestSamplerSlotFreedOnClose: closing a sampled session returns its slot
// (the sampled gauge drops back).
func TestSamplerSlotFreedOnClose(t *testing.T) {
	tbl, _ := newTable(t, Config{}, 1)
	g := obs.DefaultIntGauge(obs.MSessionSampled)
	before := g.Value()
	s := connectSampled(t, tbl, "free-")
	if g.Value() != before+1 {
		t.Fatalf("sampled gauge %d, want %d", g.Value(), before+1)
	}
	tbl.Disconnect(s.ID())
	if s.State() != StateClosed {
		t.Fatalf("state %v after idle disconnect", s.State())
	}
	if g.Value() != before {
		t.Fatalf("sampled gauge %d after close, want %d", g.Value(), before)
	}
}

// TestSampledPostReleaseZeroAlloc is the hot-path gate: a sampled
// session's post → fetch → release cycle must not allocate. (The
// benchmark BenchmarkSessionSLOSample gates the same property in the
// benchdiff zero-alloc regex; this keeps it enforced by plain `go test`.)
func TestSampledPostReleaseZeroAlloc(t *testing.T) {
	tbl, ps := newTable(t, Config{SLOBudget: time.Millisecond}, 1)
	s := connectSampled(t, tbl, "alloc-")
	q := ps[0].Queue()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Post("m", 64, nil); err != nil {
			t.Fatal(err)
		}
		_, ok := q.TryFetch()
		if !ok {
			t.Fatal("empty plane queue")
		}
		q.Ack()
		s.Release(64, int64(50_000))
	})
	if allocs != 0 {
		t.Fatalf("sampled post/release allocates %.1f/op, want 0", allocs)
	}
}

// TestUnsampledSessionsStillTracked: every session (sampled or not) feeds
// the heavy-hitter sketch. The sketch is process-wide, so the check is on
// what this run added to the session's entry.
func TestUnsampledSessionsStillTracked(t *testing.T) {
	tbl, ps := newTable(t, Config{}, 1)
	var s *Session
	for i := 0; ; i++ {
		c, err := tbl.Connect("hh-" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		if !c.Sampled() {
			s = c
			break
		}
		tbl.Disconnect(c.ID())
	}
	tracked := func() (bytes, msgs int64) {
		for _, h := range obs.SessionStats().Snapshot(0).TopBytes {
			if h.ID == s.ID() {
				return int64(h.Bytes), int64(h.Msgs)
			}
		}
		return 0, 0
	}
	b0, m0 := tracked()
	q := ps[0].Queue()
	for i := 0; i < 10; i++ {
		if err := s.Post("m", 1<<10, nil); err != nil {
			t.Fatal(err)
		}
		_, _ = q.TryFetch()
		q.Ack()
		s.Release(1<<10, 0)
	}
	if b, m := tracked(); b-b0 != 10<<10 || m-m0 != 10 {
		t.Fatalf("unsampled session %s tracked +%d bytes +%d msgs, want +%d +10: %+v",
			s.ID(), b-b0, m-m0, 10<<10, obs.SessionStats().Snapshot(0).TopBytes)
	}
}

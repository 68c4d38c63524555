package main

import (
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mobigate"
	"mobigate/internal/mime"
	"mobigate/internal/server"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("an empty sample must not read as a number")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q2, 2.5) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %g %g %g, want 1.25 2.5 3.75", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	// One slice spoiled by a stall must not move the sliced percentile.
	calm := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	stalled := make([]float64, len(calm))
	for i := range stalled {
		stalled[i] = 500
	}
	if got, want := slicedPercentile([][]float64{calm, stalled, calm, calm, {1, 2}}, 0.9), percentile(calm, 0.9); !near(got, want) {
		t.Errorf("slicedPercentile = %g, want the calm slices' %g", got, want)
	}
}

func TestWindow(t *testing.T) {
	w := newWindow(8, 100)
	for _, id := range []int64{100, 102, 101} {
		if !w.mark(id) {
			t.Fatalf("mark(%d) refused", id)
		}
	}
	if w.contig != 103 {
		t.Errorf("contig = %d, want 103", w.contig)
	}
	if w.mark(101) {
		t.Error("a duplicate below the prefix was accepted")
	}
	if !w.mark(105) || w.mark(105) {
		t.Error("a duplicate ahead of the prefix was accepted, or a first delivery refused")
	}
	if w.mark(103 + 8) {
		t.Error("an id beyond the ring was accepted")
	}
	if w.mark(99) {
		t.Error("an id before the session was accepted")
	}
	if !w.mark(103+7) || w.contig != 103 {
		t.Error("the last id of the ring must be accepted without moving the prefix")
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	sp := findSpec("relay-small")
	corp, err := buildCorpus(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := newSlot(0, sp, corp, "", nil, 2)
	b := newSlot(0, sp, corp, "", nil, 2)
	other := newSlot(1, sp, corp, "", nil, 2)
	if want := time.Duration(float64(time.Second) * 2 / sp.pacedRate); a.interval != want {
		t.Fatalf("interval = %v, want %v (the rate is shared by the connections)", a.interval, want)
	}
	var sum time.Duration
	same, differs := true, false
	const n = 20000
	for i := 0; i < n; i++ {
		ga, gb, go_ := a.nextGap(), b.nextGap(), other.nextGap()
		same = same && ga == gb
		differs = differs || ga != go_
		sum += ga
	}
	if !same {
		t.Error("the same seed and slot must give the same schedule")
	}
	if !differs {
		t.Error("two slots must not share a schedule")
	}
	if mean := float64(sum) / n; math.Abs(mean/float64(a.interval)-1) > 0.05 {
		t.Errorf("mean gap %v, want %v within 5 %%", time.Duration(mean), a.interval)
	}
}

// A sleeping generator must wake within the kernel's timer slack, not a
// runtime timer's millisecond: lateness is charged to every paced message.
func TestPacerBeatsTheRuntimeTimer(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	const d = 200 * time.Microsecond
	var over []float64
	for i := 0; i < 31; i++ {
		t0 := time.Now()
		p.sleep(d)
		el := time.Since(t0)
		if el < d {
			t.Fatalf("slept %v, asked for %v", el, d)
		}
		over = append(over, float64(el-d))
	}
	if m := time.Duration(median(over)); m > 700*time.Microsecond {
		t.Errorf("median overshoot %v: no better than time.Sleep", m)
	}
}

func TestVerifier(t *testing.T) {
	relay, err := buildCorpus(findSpec("relay-small"), 3)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(c *corpus, id int64, hops, src string) *mime.Message {
		m := c.build(id)
		m.SetBody(append([]byte(nil), c.item(id).want...))
		m.SetHeader(headerHops, hops)
		m.SetHeader("X-Part-Source", src)
		return m
	}
	for _, c := range []struct {
		id        int64
		hops, src string
		ok        bool
	}{
		{0, "2", "pi2", true}, {0, "3", "pi2", true}, {0, "1", "pi2", false}, {0, "", "pi2", false},
		{1, "1", "pi1", true}, {1, "2", "pi1", false}, {1, "1", "pi2", false},
	} {
		if err := relay.verify(deliver(relay, c.id, c.hops, c.src), c.id, false); (err == nil) != c.ok {
			t.Errorf("id %d hops %q from %s: err = %v, want ok = %v", c.id, c.hops, c.src, err, c.ok)
		}
	}
	bad := deliver(relay, 0, "2", "pi2")
	bad.Body()[17] ^= 1
	if err := relay.verify(bad, 0, false); err == nil {
		t.Error("a corrupted body passed")
	}
	if err := relay.verify(deliver(relay, 0, "2", "pi2"), 2, false); err == nil {
		t.Error("another message's body passed")
	}
	if err := relay.verify(relay.build(5), 5, true); err != nil {
		t.Errorf("direct run: untouched origin message refused: %v", err)
	}

	// The web-acceleration reference is the services called directly: an
	// image must come out transcoded, a text byte-identical after the
	// client's decompress.
	web, err := buildCorpus(findSpec("webaccel-mixed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildCorpus(findSpec("webaccel-mixed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildCorpus(findSpec("webaccel-mixed"), 4)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := range web.items {
		a, b := &web.items[i], &again.items[i]
		if string(a.body) != string(b.body) || string(a.want) != string(b.want) {
			t.Fatalf("item %d: the same seed gave different inputs", i)
		}
		differs = differs || string(a.body) != string(other.items[i].body)
		id, src := int64(i), "pi2"
		if a.image {
			src = "pi1"
			if string(a.want) == string(a.body) || !strings.HasPrefix(string(a.want), "RJPG ") {
				t.Fatalf("item %d: image reference is not a transcoded raster", i)
			}
		} else if string(a.want) != string(a.body) {
			t.Fatalf("item %d: text reference differs from the origin", i)
		}
		if err := web.verify(deliver(web, id, "", src), id, false); err != nil {
			t.Fatalf("item %d: reference output refused: %v", i, err)
		}
		if a.image {
			raw := deliver(web, id, "", src)
			raw.SetBody(a.body) // the untranscoded image
			if err := web.verify(raw, id, false); err == nil {
				t.Fatalf("item %d: an image the chain did not transcode passed", i)
			}
		}
	}
	if !differs {
		t.Error("another seed gave the same inputs")
	}
}

// tamper wraps a Source: it withholds message drop and flips a byte of
// message corrupt (in a copy; origin bodies are shared).
func tamper(src server.Source, drop, corrupt string) server.Source {
	return func(req *mime.Message) <-chan *mime.Message {
		in := src(req)
		out := make(chan *mime.Message)
		go func() {
			defer close(out)
			for m := range in {
				switch m.Header(headerBenchID) {
				case drop:
					continue
				case corrupt:
					b := append([]byte(nil), m.Body()...)
					b[0] ^= 0xff
					m.SetBody(b)
				}
				out <- m
			}
		}()
		return out
	}
}

// A dropped message and a corrupted one must each be counted as a failed
// operation and fail their session; the rest of the session is delivered.
func TestLostAndCorruptedAreFailures(t *testing.T) {
	defer func(d time.Duration) { tailDeadline = d }(tailDeadline)
	tailDeadline = 100 * time.Millisecond
	sp := findSpec("relay-small")
	corp, err := buildCorpus(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, drop, corrupt string
	}{{"dropped", "13", "none"}, {"corrupted", "none", "13"}, {"clean", "none", "none"}} {
		t.Run(c.name, func(t *testing.T) {
			slots := make([]*slot, 1)
			d, err := startDirect(tamper(source(slots), c.drop, c.corrupt))
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			s := newSlot(0, sp, corp, d.ln.Addr().String(), mobigate.NewClient(mobigate.ClientOptions{}, nil), 1)
			s.direct, s.sessionLen, s.oneShot = true, 40, true
			if s.pace, err = newPacer(); err != nil {
				t.Fatal(err)
			}
			s.mode.Store(phaseSat)
			slots[0] = s
			var wg sync.WaitGroup
			wg.Add(1)
			go s.run(&wg)
			wg.Wait()
			wantFailed := int64(1)
			if c.name == "clean" {
				wantFailed = 0
			}
			if got := s.attempted.Load(); got != 40 {
				t.Errorf("attempted %d messages, want 40", got)
			}
			if got := s.failedMsgs.Load(); got != wantFailed {
				t.Errorf("%d failed messages, want %d (first error: %v)", got, wantFailed, s.firstErr)
			}
			if got := s.sessionsFailed.Load(); got != wantFailed {
				t.Errorf("%d failed sessions, want %d", got, wantFailed)
			}
			if got := s.verified.Load(); got != 40-wantFailed {
				t.Errorf("%d verified, want %d", got, 40-wantFailed)
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program's own tables must say the same thing, in
// the format the contract fixes.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(specs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file says %q / %q, program %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, file []boundedMetric, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(file), len(prog))
		}
		for i, m := range file {
			unique(m.Name)
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: file says %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	var setup *boundedMetric
	for i := range bf.EndToEnd {
		if bf.EndToEnd[i].Name == "setup_s" {
			setup = &bf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s [s, lower is better] is required")
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// The smoke pass: every workload end to end and traced, with the fixed work
// shrunk. Every end-to-end metric must be a positive number, every
// per-layer metric present and finite, and nothing may fail.
func TestSmoke(t *testing.T) {
	defer func(n int, d time.Duration) { ticksPerSlice, pacedSettle = n, d }(ticksPerSlice, pacedSettle)
	ticksPerSlice, pacedSettle = 2, 50*time.Millisecond
	for i := range specs {
		sp := &specs[i]
		for _, traced := range []bool{false, true} {
			name, run, defs, seconds := sp.name+"/end-to-end", runEndToEnd, endToEnd, 1.0
			if traced {
				name, run, defs, seconds = sp.name+"/traced", runTraced, perLayer, 1.3
			}
			t.Run(name, func(t *testing.T) {
				r, err := run(options{sp: sp, seed: 42, seconds: seconds, trace: traced, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || !r.correct || r.attempted < 1 {
					t.Errorf("%d of %d operations failed (correct = %v): %v", r.failed, r.attempted, r.correct, r.notes)
				}
				for _, d := range defs {
					v, ok := r.values[d.name]
					switch {
					case !ok:
						t.Errorf("%s is missing", d.name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("%s = %v", d.name, v)
					case !traced && v <= 0:
						t.Errorf("%s = %v, want > 0", d.name, v)
					}
				}
				var extra []string
				for k := range r.values {
					found := false
					for _, d := range defs {
						found = found || d.name == k
					}
					if !found {
						extra = append(extra, k)
					}
				}
				sort.Strings(extra)
				if len(extra) > 0 {
					t.Errorf("metrics measured but not declared: %v", extra)
				}
			})
		}
	}
}

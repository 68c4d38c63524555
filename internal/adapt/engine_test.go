package adapt

import (
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/services"
	"mobigate/internal/stream"
	"mobigate/internal/streamlet"
)

const enginePrelude = `
streamlet relay {
	port { in pi : text/*; out po : text/*; }
	attribute { type = STATELESS; library = "bench/redirector"; }
}
streamlet tc_def {
	port { in pi : text; out po : text; }
	attribute { type = STATELESS; library = "text/compress"; }
}
`

// buildStream compiles prelude+body and runs stream "s" with the standard
// service directory.
func buildStream(t *testing.T, body string) (*stream.Stream, *mcl.Config) {
	t.Helper()
	cfg, err := mcl.Compile(enginePrelude+body, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	st, err := stream.FromConfig(cfg, "s", nil, dir)
	if err != nil {
		t.Fatalf("FromConfig: %v", err)
	}
	t.Cleanup(st.End)
	st.Start()
	return st, cfg
}

// TestEngineSustainAndRearm drives the insert/remove pair through a full
// hysteresis cycle with a fake sampler: sustain delays the insert, the
// edge trigger prevents refiring while the condition stays true, and the
// rule re-arms after the condition breaks.
func TestEngineSustainAndRearm(t *testing.T) {
	st, cfg := buildStream(t, `
main stream s {
	streamlet hd = new-streamlet (relay);
	streamlet cm = new-streamlet (relay);
	connect (hd.po, cm.pi);
	when (queue_depth > 10) sustain 2 -> insert tc_def between hd and cm;
	when (queue_depth <= 10) -> remove tc_def;
}
`)
	var qd atomic.Int64
	eng := New(Config{Sampler: func() Reading { return Reading{QueueDepth: qd.Load()} }})
	eng.Attach("s", st, cfg.Stream("s").Policies)
	if !eng.Attached("s") {
		t.Fatal("not attached")
	}

	// Note: the remove rule fires (inapplicably) on early ticks while the
	// compressor is absent; those are suppressions, not actions.
	qd.Store(20)
	eng.Tick() // holds=1 < sustain 2
	if got := eng.Actions(); got != 0 {
		t.Fatalf("actions after 1 tick = %d, want 0 (sustain 2)", got)
	}
	if st.Streamlet("tc_def") != nil {
		t.Fatal("compressor inserted before sustain was met")
	}
	eng.Tick() // holds=2: fire
	if got := eng.Actions(); got != 1 {
		t.Fatalf("actions = %d, want 1", got)
	}
	if st.Streamlet("tc_def") == nil {
		t.Fatal("compressor not inserted")
	}
	for i := 0; i < 5; i++ {
		eng.Tick() // condition still true: edge trigger must hold it quiet
	}
	if got := eng.Actions(); got != 1 {
		t.Fatalf("rule refired while condition stayed true: actions = %d", got)
	}

	qd.Store(0)
	eng.Tick() // remove fires; insert re-arms
	if got := eng.Actions(); got != 2 {
		t.Fatalf("actions = %d, want 2 (remove)", got)
	}
	if st.Streamlet("tc_def") != nil {
		t.Fatal("compressor not removed")
	}

	qd.Store(20)
	eng.Tick()
	eng.Tick() // re-armed insert fires again after sustain
	if got := eng.Actions(); got != 3 {
		t.Fatalf("actions = %d, want 3 (re-armed insert)", got)
	}
	if st.Streamlet("tc_def") == nil {
		t.Fatal("compressor not re-inserted")
	}

	eng.Detach("s")
	if eng.Attached("s") {
		t.Fatal("still attached after Detach")
	}
}

// TestEngineCounterDelta checks counter-style signals compare per-tick
// deltas, and that a plateau re-arms the rule for the next increment.
func TestEngineCounterDelta(t *testing.T) {
	st, cfg := buildStream(t, `
main stream s {
	streamlet hd = new-streamlet (relay);
	streamlet tc = new-streamlet (tc_def);
	streamlet cm = new-streamlet (relay);
	connect (hd.po, tc.pi);
	connect (tc.po, cm.pi);
	when (slo_violations > 0) -> param tc level = 9;
}
`)
	var slo atomic.Uint64
	eng := New(Config{Sampler: func() Reading { return Reading{SLOViolations: slo.Load()} }})
	eng.Attach("s", st, cfg.Stream("s").Policies)

	slo.Store(7)
	eng.Tick() // first tick: no previous reading, delta is 0
	eng.Tick() // plateau: delta 0
	if got := eng.Actions(); got != 0 {
		t.Fatalf("actions = %d, want 0 (no delta yet)", got)
	}
	slo.Add(1)
	eng.Tick() // delta 1: fire
	if got := eng.Actions(); got != 1 {
		t.Fatalf("actions = %d, want 1", got)
	}
	comp, ok := st.Streamlet("tc").Processor().(*services.Compressor)
	if !ok {
		t.Fatalf("tc processor is %T", st.Streamlet("tc").Processor())
	}
	if comp.Level != 9 {
		t.Fatalf("compressor level = %d, want 9", comp.Level)
	}
	eng.Tick() // plateau: delta 0, re-arm; also drains the cooldown
	eng.Tick()
	slo.Add(3)
	eng.Tick() // delta 3: fire again
	if got := eng.Actions(); got != 2 {
		t.Fatalf("actions = %d, want 2 after second burst", got)
	}
}

// TestEngineAttachPreservesState: re-attaching identical rule text (the
// hot-reload path) must keep hysteresis counters, so a sustain window that
// straddles a reload still fires on time.
func TestEngineAttachPreservesState(t *testing.T) {
	st, cfg := buildStream(t, `
main stream s {
	streamlet hd = new-streamlet (relay);
	streamlet cm = new-streamlet (relay);
	connect (hd.po, cm.pi);
	when (queue_depth > 10) sustain 2 -> insert tc_def between hd and cm;
}
`)
	var qd atomic.Int64
	eng := New(Config{Sampler: func() Reading { return Reading{QueueDepth: qd.Load()} }})
	eng.Attach("s", st, cfg.Stream("s").Policies)

	qd.Store(20)
	eng.Tick() // holds=1
	if !eng.SetPolicies("s", cfg.Stream("s").Policies) {
		t.Fatal("SetPolicies on attached id returned false")
	}
	eng.Tick() // holds=2 only if state survived the re-attach
	if got := eng.Actions(); got != 1 {
		t.Fatalf("actions = %d, want 1 (sustain state lost across re-attach)", got)
	}
}

// TestEngineNoLossAcrossReconfigurations is the -race gate: messages flow
// continuously while policies repeatedly splice the compressor in and out;
// every message must come out the far end.
func TestEngineNoLossAcrossReconfigurations(t *testing.T) {
	st, cfg := buildStream(t, `
main stream s {
	streamlet hd = new-streamlet (relay);
	streamlet cm = new-streamlet (relay);
	connect (hd.po, cm.pi);
	when (queue_depth > 10) -> insert tc_def between hd and cm;
	when (queue_depth <= 10) -> remove tc_def;
}
`)
	inlet, err := st.OpenInlet(mcl.PortRef{Inst: "hd", Port: "pi"}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	outlet, err := st.OpenOutlet(mcl.PortRef{Inst: "cm", Port: "po"})
	if err != nil {
		t.Fatal(err)
	}

	var qd atomic.Int64
	eng := New(Config{
		Sampler:      func() Reading { return Reading{QueueDepth: qd.Load()} },
		DrainTimeout: 5 * time.Second,
	})
	eng.Attach("s", st, cfg.Stream("s").Policies)

	const msgs = 200
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := inlet.Send(services.GenTextMessage(256, int64(i))); err != nil {
				sendErr <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		sendErr <- nil
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				qd.Store(20)
			} else {
				qd.Store(0)
			}
			eng.Tick()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	received := 0
	for received < msgs {
		if _, err := outlet.Receive(10 * time.Second); err != nil {
			t.Fatalf("after %d messages: %v", received, err)
		}
		received++
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	<-done
	if d := st.Dropped(); d != 0 {
		t.Fatalf("dropped = %d, want 0", d)
	}
	if eng.Actions() < 2 {
		t.Fatalf("actions = %d, want >= 2 (insert and remove both exercised)", eng.Actions())
	}
}

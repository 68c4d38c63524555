package server

import (
	"strings"
	"sync/atomic"
	"testing"

	"mobigate/internal/event"
	"mobigate/internal/mcl"

	"mobigate/internal/semantics"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

const gatewayScript = `
streamlet src2sink {
	port { in pi : text; out po : text; }
	attribute { type = STATELESS; library = "text/compress"; }
}
main stream webflow {
	streamlet c = new-streamlet (src2sink);
}
`

const loopScript = `
streamlet f { port { in pi : text; out po : text; } attribute { library = "text/compress"; } }
stream bad {
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (f);
	connect (a.po, b.pi);
	connect (b.po, a.pi);
}
`

func newTestServer(t *testing.T) *Server {
	t.Helper()
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	s := New(Options{Directory: dir})
	t.Cleanup(s.Close)
	return s
}

func TestLoadScriptAndReport(t *testing.T) {
	s := newTestServer(t)
	if err := s.LoadScript(gatewayScript); err != nil {
		t.Fatal(err)
	}
	if s.Config() == nil {
		t.Fatal("config nil")
	}
	rep := s.Report("webflow")
	if rep == nil || !rep.OK() {
		t.Errorf("report = %+v", rep)
	}
	if err := s.LoadScript("not mcl"); err == nil {
		t.Error("garbage script accepted")
	}
}

func TestDeployUndeploy(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Deploy("webflow"); err == nil {
		t.Error("deploy before load succeeded")
	}
	if err := s.LoadScript(gatewayScript); err != nil {
		t.Fatal(err)
	}
	st, err := s.Deploy("webflow")
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || s.Stream("webflow") != st {
		t.Error("deployed stream not tracked")
	}
	if _, err := s.Deploy("webflow"); err == nil {
		t.Error("double deploy succeeded")
	}
	if got := s.Deployed(); len(got) != 1 || got[0] != "webflow" {
		t.Errorf("Deployed = %v", got)
	}
	if err := s.Undeploy("webflow"); err != nil {
		t.Fatal(err)
	}
	if err := s.Undeploy("webflow"); err == nil {
		t.Error("double undeploy succeeded")
	}
	// Instances deploy under aliases.
	a, err := s.DeployInstance("webflow", "webflow#1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.DeployInstance("webflow", "webflow#2")
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.SessionID() == b.SessionID() {
		t.Error("instances share identity")
	}
}

func TestDeployRejectsFeedbackLoop(t *testing.T) {
	s := newTestServer(t)
	if err := s.LoadScript(loopScript); err != nil {
		t.Fatal(err)
	}
	rep := s.Report("bad")
	if rep.OK() {
		t.Fatal("loop not detected at load")
	}
	if _, err := s.Deploy("bad"); err == nil || !strings.Contains(err.Error(), "semantic analysis") {
		t.Errorf("loop deploy error = %v", err)
	}
}

func TestStrictModeRejectsAnyViolation(t *testing.T) {
	// Open circuit only (no loop): non-strict deploys, strict refuses.
	src := `
streamlet f { port { in pi : text; out po : text; } attribute { library = "text/compress"; } }
streamlet g { port { in pi : text; out po : text; } attribute { library = "text/compress"; } }
stream app {
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (g);
	connect (a.po, b.pi);
}
`
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)

	// Rules that flag a dependency violation (f requires missing defs).
	rules := semantics.Rules{Dependencies: map[string][]string{"f": {"missing"}}}
	lax := New(Options{Directory: dir, Rules: rules})
	defer lax.Close()
	if err := lax.LoadScript(src); err != nil {
		t.Fatal(err)
	}
	if _, err := lax.Deploy("app"); err != nil {
		t.Errorf("lax deploy failed: %v", err)
	}
	strict := New(Options{Directory: dir, Rules: rules, Strict: true})
	defer strict.Close()
	if err := strict.LoadScript(src); err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Deploy("app"); err == nil {
		t.Error("strict deploy succeeded despite violations")
	}
}

func TestEventRoutingToDeployedStream(t *testing.T) {
	src := `
streamlet f { port { in pi : text; out po : text; } attribute { type = STATELESS; library = "text/compress"; } }
streamlet g { port { in pi : text; out po : text; } attribute { type = STATELESS; library = "text/decompress"; } }
main stream app {
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (g);
	when (LOW_BANDWIDTH) {
		connect (a.po, b.pi);
	}
}
`
	s := newTestServer(t)
	if err := s.LoadScript(src); err != nil {
		t.Fatal(err)
	}
	st, err := s.Deploy("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Raise(event.LOW_BANDWIDTH, ""); err != nil {
		t.Fatal(err)
	}
	waitUntil(func() bool { return st.Reconfigurations() != 0 })
	if st.Reconfigurations() != 1 {
		t.Errorf("reconfigurations = %d", st.Reconfigurations())
	}
	// Events of non-subscribed categories do not reach the stream. The
	// manager dispatches in order to subscribers in subscription order, so
	// once a later subscriber of that category has the event, the stream
	// would have had it too.
	probe := &eventProbe{}
	s.Events().Subscribe(event.HardwareVariation, probe)
	if err := s.Raise(event.LOW_ENERGY, ""); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(func() bool { return probe.got.Load() }) {
		t.Fatal("LOW_ENERGY never dispatched")
	}
	if st.Reconfigurations() != 1 {
		t.Error("unsubscribed category delivered")
	}
}

// eventProbe records that an event reached it.
type eventProbe struct{ got atomic.Bool }

func (p *eventProbe) SubscriberName() string     { return "probe" }
func (p *eventProbe) OnEvent(event.ContextEvent) { p.got.Store(true) }

func TestDeployRegistersUnknownEvents(t *testing.T) {
	src := `
streamlet f { port { in pi : text; out po : text; } attribute { type = STATELESS; library = "text/compress"; } }
main stream app {
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (f);
	when (MY_CUSTOM_EVENT) {
		connect (a.po, b.pi);
	}
}
`
	s := newTestServer(t)
	if err := s.LoadScript(src); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy("app"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Events().Catalog().CategoryOf("MY_CUSTOM_EVENT"); !ok {
		t.Error("custom event not registered")
	}
	if err := s.Raise("MY_CUSTOM_EVENT", ""); err != nil {
		t.Errorf("raise custom: %v", err)
	}
}

func TestCloseIsTerminal(t *testing.T) {
	s := newTestServer(t)
	if err := s.LoadScript(gatewayScript); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy("webflow"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if got := s.Deployed(); len(got) != 0 {
		t.Errorf("streams survive close: %v", got)
	}
	if _, err := s.Deploy("webflow"); err == nil {
		t.Error("deploy after close succeeded")
	}
}

func TestStreamletManagerPooling(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	m := NewStreamletManager(dir)

	stateless := &mcl.StreamletDecl{Name: "c", Kind: mcl.Stateless, Library: services.LibTextCompress}
	stateful := &mcl.StreamletDecl{Name: "m", Kind: mcl.Stateful, Library: services.LibMerge}

	p1, err := m.Acquire(stateless)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(stateless, p1)
	p2, err := m.Acquire(stateless)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("stateless instance not pooled")
	}

	s1, err := m.Acquire(stateful)
	if err != nil {
		t.Fatal(err)
	}
	m.Release(stateful, s1)
	s2, err := m.Acquire(stateful)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Error("stateful instance reused")
	}

	acquired, released, created, reused := m.Stats()
	if acquired != 4 || released != 2 {
		t.Errorf("acquired/released = %d/%d", acquired, released)
	}
	if created == 0 || reused != 1 {
		t.Errorf("created/reused = %d/%d", created, reused)
	}

	if _, err := m.Acquire(nil); err == nil {
		t.Error("nil decl accepted")
	}
	if _, err := m.Acquire(&mcl.StreamletDecl{Library: "ghost"}); err == nil {
		t.Error("unknown library accepted")
	}
	m.Release(nil, nil) // no panic
}

func TestStreamletManagerPoolingDisabled(t *testing.T) {
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	m := NewStreamletManager(dir)
	m.DisablePooling = true
	decl := &mcl.StreamletDecl{Name: "c", Kind: mcl.Stateless, Library: services.LibTextCompress}
	p1, _ := m.Acquire(decl)
	m.Release(decl, p1)
	p2, _ := m.Acquire(decl)
	if p1 == p2 {
		t.Error("pooling disabled but instance reused")
	}
}

func TestEntryExit(t *testing.T) {
	cfg, err := mcl.Compile(gatewayScript, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry, exit, err := EntryExit(cfg.Stream("webflow"))
	if err != nil {
		t.Fatal(err)
	}
	if entry.String() != "c.pi" || exit.String() != "c.po" {
		t.Errorf("entry=%s exit=%s", entry, exit)
	}
	// A stream with no open ends fails.
	closed := `
streamlet f { port { out po : text; } attribute { library = "text/compress"; } }
streamlet g { port { in pi : text; } attribute { library = "text/compress"; } }
stream sealed {
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (g);
	connect (a.po, b.pi);
}
`
	cfg2, err := mcl.Compile(closed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EntryExit(cfg2.Stream("sealed")); err == nil {
		t.Error("sealed stream produced entry/exit")
	}
}

func TestEntryExitPrefersConnectedInstances(t *testing.T) {
	// tc is an optional streamlet only wired by a when-block; its dangling
	// ports must not be chosen as the session entry/exit.
	src := `
streamlet f { port { in pi : text; out po : text; } attribute { library = "text/compress"; } }
main stream app {
	streamlet tc = new-streamlet (f);
	streamlet a = new-streamlet (f);
	streamlet b = new-streamlet (f);
	connect (a.po, b.pi);
	when (LOW_BANDWIDTH) {
		disconnect (a.po, b.pi);
		connect (a.po, tc.pi);
		connect (tc.po, b.pi);
	}
}
`
	cfg, err := mcl.Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	entry, exit, err := EntryExit(cfg.Stream("app"))
	if err != nil {
		t.Fatal(err)
	}
	if entry.String() != "a.pi" || exit.String() != "b.po" {
		t.Errorf("entry=%s exit=%s, want a.pi/b.po", entry, exit)
	}
}

func TestLoadScriptsUnit(t *testing.T) {
	s := newTestServer(t)
	lib := `
streamlet libc { port { in pi : text; out po : text; } attribute { type = STATELESS; library = "text/compress"; } }
`
	app := `
main stream unitApp {
	streamlet c = new-streamlet (libc);
}
`
	if err := s.LoadScripts(map[string]string{"lib.mcl": lib, "app.mcl": app}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy("unitApp"); err != nil {
		t.Fatal(err)
	}
	// A bad member names its file.
	err := s.LoadScripts(map[string]string{"oops.mcl": "garbage"})
	if err == nil || !strings.Contains(err.Error(), "oops.mcl") {
		t.Errorf("error = %v", err)
	}
}

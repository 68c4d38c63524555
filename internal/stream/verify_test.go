package stream

import (
	"strings"
	"testing"

	"mobigate/internal/mcl"
	"mobigate/internal/semantics"
)

// declFor builds a minimal declaration for live-verification tests (Verify
// uses declared ports to find unbound outputs).
func declFor(name string) *mcl.StreamletDecl {
	return &mcl.StreamletDecl{
		Name: name,
		Ports: []mcl.PortDecl{
			{Dir: mcl.PortIn, Name: "pi"},
			{Dir: mcl.PortOut, Name: "po"},
		},
		Library: "x/" + name,
	}
}

func TestVerifyCleanLiveTopology(t *testing.T) {
	st := New("live", nil, nil)
	defer st.End()
	if _, err := st.AddStreamlet("a", declFor("fa"), forward); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("b", declFor("fb"), forward); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("a", "po"), ref("b", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenOutlet(ref("b", "po")); err != nil {
		t.Fatal(err)
	}
	rep := st.Verify(semantics.Rules{})
	if !rep.OK() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestVerifyDetectsLiveOpenCircuit(t *testing.T) {
	st := New("live", nil, nil)
	defer st.End()
	if _, err := st.AddStreamlet("a", declFor("fa"), forward); err != nil {
		t.Fatal(err)
	}
	// a.po is declared but bound to nothing: messages would be lost.
	rep := st.Verify(semantics.Rules{})
	if rep.OK() {
		t.Fatal("live open circuit not reported")
	}
	if rep.Violations[0].Kind != "open-circuit" || rep.Violations[0].Scenario != "live" {
		t.Errorf("violation = %v", rep.Violations[0])
	}
	// Outlet binding silences it.
	if _, err := st.OpenOutlet(ref("a", "po")); err != nil {
		t.Fatal(err)
	}
	if rep := st.Verify(semantics.Rules{}); !rep.OK() {
		t.Errorf("bound output still flagged: %v", rep.Violations)
	}
}

func TestVerifyDetectsLiveCycle(t *testing.T) {
	st := New("live", nil, nil)
	defer st.End()
	for _, id := range []string{"a", "b"} {
		if _, err := st.AddStreamlet(id, declFor("f"+id), forward); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Connect(ref("a", "po"), ref("b", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("b", "po"), ref("a", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	rep := st.Verify(semantics.Rules{})
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "feedback-loop" {
			found = true
		}
	}
	if !found {
		t.Errorf("live cycle not found: %v", rep.Violations)
	}
}

func TestVerifyUsesDefinitionNames(t *testing.T) {
	st := New("live", nil, nil)
	defer st.End()
	if _, err := st.AddStreamlet("x1", declFor("encrypt"), forward); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("x2", declFor("compress"), forward); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("x2", "po"), ref("x1", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenOutlet(ref("x1", "po")); err != nil {
		t.Fatal(err)
	}
	rep := st.Verify(semantics.Rules{
		Preorders: []semantics.Preorder{{Before: "encrypt", After: "compress"}},
	})
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "preorder" {
			found = true
		}
	}
	if !found {
		t.Errorf("preorder on live topology not found: %v", rep.Violations)
	}
}

func TestVerifyAfterReconfig(t *testing.T) {
	// A when-block that leaves a dangling output: Verify on the live
	// topology must see what the reconfiguration did, not the script.
	src := `
streamlet f { port { in pi : text; out po : text; } attribute { type = STATELESS; library = "x/a"; } }
main stream app {
	streamlet s1 = new-streamlet (f);
	streamlet s2 = new-streamlet (f);
	connect (s1.po, s2.pi);
	when (LOW_BANDWIDTH) {
		disconnect (s1.po, s2.pi);
	}
}
`
	cfg, err := mcl.Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := FromConfig(cfg, "app", nil, testDirectory())
	if err != nil {
		t.Fatal(err)
	}
	defer st.End()
	st.Start()

	// s2.po is a sanctioned exit; s1.po is connected, so Verify passes.
	rules := semantics.Rules{AllowedOpenPorts: []string{"s2.po"}}
	if rep := st.Verify(rules); !rep.OK() {
		t.Fatalf("pre-reconfig violations: %v", rep.Violations)
	}
	if err := st.RunWhen("LOW_BANDWIDTH"); err != nil {
		t.Fatal(err)
	}
	rep := st.Verify(rules)
	if rep.OK() {
		t.Fatal("dangling s1.po after the disconnect not reported")
	}
	if v := rep.Violations[0]; v.Kind != "open-circuit" || !strings.Contains(v.String(), "s1.po") {
		t.Errorf("violation = %v", v)
	}
}

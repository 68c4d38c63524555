package stream

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/services"
)

// parallelScript declares a compressor with fan-out through the full MCL →
// directory → stream path.
const parallelScript = `
streamlet comp {
	port { in pi : text/plain; out po : text/plain; }
	attribute { type = STATELESS; library = "text/compress"; workers = 4; }
}
main stream par {
	streamlet c = new-streamlet (comp);
}
`

// TestWorkersFromDeclaration wires workers = 4 end to end: the declaration
// must reach the streamlet instance and messages must flow in order.
func TestWorkersFromDeclaration(t *testing.T) {
	cfg, err := mcl.Compile(parallelScript, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := FromConfig(cfg, "par", nil, servicesDir())
	if err != nil {
		t.Fatal(err)
	}
	if w := st.Streamlet("c").Workers(); w != 4 {
		t.Fatalf("instance workers = %d, want 4", w)
	}
	in, err := st.OpenInlet(ref("c", "pi"), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("c", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	t.Cleanup(st.End)

	const n = 40
	go func() {
		for i := 0; i < n; i++ {
			m := services.GenTextMessage(2<<10, int64(i))
			m.SetHeader("X-Seq", fmt.Sprintf("%04d", i))
			_ = in.Send(m)
		}
	}()
	for i := 0; i < n; i++ {
		got, err := out.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if want := fmt.Sprintf("%04d", i); got.Header("X-Seq") != want {
			t.Fatalf("message %d seq = %q, want %q (reordered)", i, got.Header("X-Seq"), want)
		}
	}
}

// TestNewStreamletRefusesUnparallelizable pins the static gate: workers > 1
// over a library that never advertised Parallelizable must be refused.
func TestNewStreamletRefusesUnparallelizable(t *testing.T) {
	src := `
streamlet m {
	port { in pi1 : text; in pi2 : text; out po : multipart/mixed; }
	attribute { type = STATELESS; library = "general/merge"; workers = 2; }
}
main stream s {
	streamlet i = new-streamlet (m);
}
`
	cfg, err := mcl.Compile(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = FromConfig(cfg, "s", nil, servicesDir())
	if err == nil {
		t.Fatal("workers = 2 over general/merge accepted")
	}
	if !strings.Contains(err.Error(), "not registered as parallelizable") {
		t.Errorf("error = %v", err)
	}
}

// TestInsertAcrossParallelHop reconfigures around a workers > 1 streamlet:
// the Figure 7-4 suspend/drain/heal protocol must hold with N in-flight.
func TestInsertAcrossParallelHop(t *testing.T) {
	st := New("parline", nil, nil)
	if _, err := st.AddStreamlet("a", nil, tagger("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("b", nil, tagger("b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Streamlet("a").SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("a", "po"), ref("b", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("a", "pi"), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("b", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	t.Cleanup(st.End)

	const before = 20
	go func() {
		for i := 0; i < before; i++ {
			_ = in.Send(textMsg(fmt.Sprintf("m%02d", i)))
		}
	}()
	// Insert c between the parallel hop and b while traffic flows.
	if _, err := st.AddStreamlet("c", nil, tagger("c")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("a", "b", "c", "pi", "po"); err != nil {
		t.Fatal(err)
	}
	_ = in.Send(textMsg("post"))

	seen := map[string]bool{}
	lastPre := -1
	for i := 0; i < before+1; i++ {
		got, err := out.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d lost across reconfiguration: %v", i, err)
		}
		body := string(got.Body())
		base := strings.SplitN(body, "|", 2)[0]
		if seen[base] {
			t.Fatalf("duplicate delivery %q", base)
		}
		seen[base] = true
		if base == "post" {
			if want := "post|a|c|b"; body != want {
				t.Errorf("post-insert path = %q, want %q", body, want)
			}
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(base, "m%d", &seq); err != nil {
			t.Fatalf("unexpected body %q", body)
		}
		if seq <= lastPre {
			t.Fatalf("pre-insert message %d after %d (reordered)", seq, lastPre)
		}
		lastPre = seq
	}
	if len(seen) != before+1 {
		t.Errorf("distinct deliveries = %d, want %d", len(seen), before+1)
	}
}

// TestRemoveParallelStreamlet drains and removes a workers > 1 instance.
func TestRemoveParallelStreamlet(t *testing.T) {
	st := New("parrm", nil, nil)
	for _, id := range []string{"a", "b", "c"} {
		if _, err := st.AddStreamlet(id, nil, tagger(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Streamlet("b").SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("a", "po"), ref("b", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("b", "po"), ref("c", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("a", "pi"), 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("c", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	t.Cleanup(st.End)

	const n = 12
	go func() {
		for i := 0; i < n; i++ {
			_ = in.Send(textMsg(fmt.Sprintf("m%02d", i)))
		}
	}()
	if err := st.Remove("b", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = in.Send(textMsg("after"))
	got := 0
	for i := 0; i < n+1; i++ {
		m, err := out.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("delivery %d: %v (got %d)", i, err, got)
		}
		got++
		body := string(m.Body())
		if strings.HasPrefix(body, "after") {
			if want := "after|a|c"; body != want {
				t.Errorf("post-remove path = %q, want %q", body, want)
			}
		}
	}
}

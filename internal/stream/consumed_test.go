package stream

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mobigate/internal/streamlet"
)

// shaper changes the message count by body prefix: "skip" emits nothing,
// "fail" errors, "twice" emits the input and a copy, anything else passes.
var shaper = streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
	body := string(in.Msg.Body())
	switch {
	case strings.HasPrefix(body, "skip"):
		return nil, nil
	case strings.HasPrefix(body, "fail"):
		return nil, errors.New("refused")
	case strings.HasPrefix(body, "twice"):
		return []streamlet.Emission{{Msg: in.Msg}, {Msg: in.Msg.Clone()}}, nil
	}
	return []streamlet.Emission{{Msg: in.Msg}}, nil
})

// TestConsumedBalancesFed is the front end's session-end rule at the
// runtime level: on every execution path, fed - delivered - Consumed()
// reaches zero exactly when the last message the chain will ever emit has
// been delivered, never before.
func TestConsumedBalancesFed(t *testing.T) {
	modes := map[string]func(*streamlet.Streamlet) error{
		"serial":  func(*streamlet.Streamlet) error { return nil },
		"batch":   func(s *streamlet.Streamlet) error { return s.SetBatch(8) },
		"workers": func(s *streamlet.Streamlet) error { return s.SetWorkers(3) },
	}
	prefixes := []string{"keep", "skip", "twice", "fail", "keep"}
	const n = 200
	want := 0
	for i := 0; i < n; i++ {
		switch prefixes[i%len(prefixes)] {
		case "keep":
			want++
		case "twice":
			want += 2
		}
	}
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			st := New("shape", nil, nil)
			a, err := st.AddStreamlet("a", nil, shaper)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.AddStreamlet("b", nil, forward); err != nil {
				t.Fatal(err)
			}
			if err := mode(a); err != nil {
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

			for i := 0; i < n; i++ {
				if err := in.Send(textMsg(prefixes[i%len(prefixes)])); err != nil {
					t.Fatal(err)
				}
			}
			delivered := 0
			deadline := time.Now().Add(5 * time.Second)
			for n-int64(delivered)-st.Consumed() != 0 {
				m, err := out.TryReceive()
				if err != nil {
					t.Fatal(err)
				}
				if m != nil {
					delivered++
				} else if time.Now().After(deadline) {
					t.Fatalf("fed %d, delivered %d, consumed %d: never balanced", n, delivered, st.Consumed())
				}
			}
			if delivered != want {
				t.Fatalf("balanced at %d deliveries, want %d", delivered, want)
			}
		})
	}
}

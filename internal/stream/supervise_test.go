package stream

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobigate/internal/event"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// collectEvents subscribes a counting collector named after the stream so
// source-directed fault events reach it.
type countingSub struct {
	name   string
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingSub) SubscriberName() string { return c.name }
func (c *countingSub) OnEvent(evt event.ContextEvent) {
	c.mu.Lock()
	c.counts[evt.EventID]++
	c.mu.Unlock()
}

func (c *countingSub) count(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[id]
}

// TestHealReplaceUnderLoad: a permanently broken streamlet under
// PolicyBypass + HealReplace keeps forwarding (bypass) until the supervisor
// swaps in a clean spare via the Figure 7-4 replace protocol — with zero
// message loss and the spare taking over the same queues.
func TestHealReplaceUnderLoad(t *testing.T) {
	const total = 200

	pool := msgpool.New(msgpool.ByReference)
	st := New("heal", pool, nil)
	st.ErrorHandler = func(error) {} // bypass faults report here; expected

	mgr := event.NewManager(nil)
	defer mgr.Close()
	st.SetEventSink(mgr)
	sub := &countingSub{name: "heal", counts: make(map[string]int)}
	mgr.Subscribe(event.ExecutionFault, sub)

	broken := streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
		return nil, errors.New("permanently broken")
	})
	if _, err := st.AddStreamlet("head", nil, forward); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("flaky", nil, broken); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("tail", nil, forward); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("head", "po"), ref("flaky", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("flaky", "po"), ref("tail", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Supervise("flaky", SupervisionConfig{
		Supervision: streamlet.Supervision{Policy: streamlet.PolicyBypass},
		Heal:        HealReplace,
		Spare:       func() streamlet.Processor { return forward },
	}); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("head", "pi"), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("tail", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.End()

	go func() {
		for i := 0; i < total; i++ {
			m := mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("m-%04d", i)))
			if err := in.Send(m); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i%16 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	seen := make(map[string]int, total)
	for i := 0; i < total; i++ {
		m, err := out.Receive(20 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v", i, err)
		}
		seen[string(m.Body())]++
	}
	if len(seen) != total {
		t.Errorf("distinct messages = %d, want %d", len(seen), total)
	}
	for body, n := range seen {
		if n != 1 {
			t.Errorf("message %q delivered %d times", body, n)
		}
	}

	// The faulting instance must have been replaced by a spare. A heal
	// whose drain misses its deadline aborts and the next fault retries
	// it, so the spare's sequence number is not always 1.
	spare := func() bool {
		for _, id := range st.Instances() {
			if strings.HasPrefix(id, "flaky~") {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for !spare() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st.Streamlet("flaky") != nil {
		t.Error("faulting instance still present after heal")
	}
	if !spare() {
		t.Fatalf("spare instance missing after heal: %v", st.Instances())
	}
	if st.Reconfigurations() == 0 {
		t.Error("no reconfiguration recorded for the heal")
	}

	// The healed event went through the event loop.
	for sub.count(event.STREAMLET_HEALED) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sub.count(event.STREAMLET_HEALED) == 0 {
		t.Error("no STREAMLET_HEALED event observed")
	}
	if sub.count(event.STREAMLET_ERROR) == 0 {
		t.Error("no STREAMLET_ERROR event observed")
	}
}

// TestPanicConservationUnderLoad is the §6.6 no-loss property with faults:
// a processor that panics every 25th call under PolicyRetry must still
// deliver every message exactly once (the retried call runs clean).
func TestPanicConservationUnderLoad(t *testing.T) {
	const total = 400

	var calls atomic.Uint64
	flaky := streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
		if calls.Add(1)%25 == 0 {
			panic("periodic fault")
		}
		return []streamlet.Emission{{Msg: in.Msg}}, nil
	})

	pool := msgpool.New(msgpool.ByReference)
	st := New("conserve-faults", pool, nil)
	if _, err := st.AddStreamlet("head", nil, forward); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("flaky", nil, flaky); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("head", "po"), ref("flaky", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Supervise("flaky", SupervisionConfig{
		Supervision: streamlet.Supervision{
			Policy:       streamlet.PolicyRetry,
			RetryBackoff: 100 * time.Microsecond,
		},
	}); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("head", "pi"), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("flaky", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.End()

	go func() {
		for i := 0; i < total; i++ {
			m := mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("m-%04d", i)))
			if err := in.Send(m); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()

	seen := make(map[string]int, total)
	for i := 0; i < total; i++ {
		m, err := out.Receive(20 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v", i, err)
		}
		seen[string(m.Body())]++
	}
	for body, n := range seen {
		if n != 1 {
			t.Errorf("message %q delivered %d times", body, n)
		}
	}
	if len(seen) != total {
		t.Errorf("distinct messages = %d, want %d", len(seen), total)
	}
	if f := st.Streamlet("flaky").Faults(); f.Panics == 0 || f.Retries == 0 {
		t.Errorf("Faults() = %+v, want panics and retries > 0", f)
	}
}

// TestRemoveDrainTimeout: Remove must refuse to detach while messages are
// still in flight — returning ErrDrainTimeout, counting it, and leaving the
// producer reactivated so traffic resumes — instead of silently stranding
// the undrained messages.
func TestRemoveDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	blocker := streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
		<-release
		return []streamlet.Emission{{Msg: in.Msg}}, nil
	})

	pool := msgpool.New(msgpool.ByReference)
	st := New("drain", pool, nil)
	if _, err := st.AddStreamlet("head", nil, forward); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("mid", nil, blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddStreamlet("tail", nil, forward); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("head", "po"), ref("mid", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Connect(ref("mid", "po"), ref("tail", "pi"), nil); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("head", "pi"), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("tail", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.End()

	before := obs.DefaultCounter(obs.MStreamDrainTimeoutsTotal).Value()

	// Park one message inside mid's Process call.
	if err := in.Send(mime.NewMessage(services.TypePlainText, []byte("parked"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Streamlet("mid").Quiesced() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	err = st.Remove("mid", 50*time.Millisecond)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Remove error = %v, want ErrDrainTimeout", err)
	}
	if got := obs.DefaultCounter(obs.MStreamDrainTimeoutsTotal).Value(); got != before+1 {
		t.Errorf("drain-timeout counter = %d, want %d", got, before+1)
	}
	if st.Streamlet("mid") == nil {
		t.Fatal("mid was removed despite the aborted reconfiguration")
	}

	// Unblock and verify traffic resumes end to end — the producer must
	// have been reactivated by the abort path.
	once.Do(func() { close(release) })
	if err := in.Send(mime.NewMessage(services.TypePlainText, []byte("resumed"))); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parked", "resumed"} {
		m, err := out.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("waiting for %q: %v", want, err)
		}
		if string(m.Body()) != want {
			t.Errorf("delivered %q, want %q", m.Body(), want)
		}
	}

	// With the pipeline drained, the same Remove now succeeds.
	if err := st.Remove("mid", 2*time.Second); err != nil {
		t.Fatalf("Remove after drain: %v", err)
	}
}

// TestNoGoroutineLeakAfterEnd: a supervised stream that took faults
// (including an abandoned stall) leaves no goroutines behind once ended.
func TestNoGoroutineLeakAfterEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	var calls atomic.Uint64
	flaky := streamlet.ProcessorFunc(func(in streamlet.Input) ([]streamlet.Emission, error) {
		switch calls.Add(1) {
		case 2:
			panic("one panic")
		case 4:
			time.Sleep(30 * time.Millisecond) // stall past the deadline
		}
		return []streamlet.Emission{{Msg: in.Msg}}, nil
	})

	pool := msgpool.New(msgpool.ByReference)
	st := New("leak", pool, nil)
	st.ErrorHandler = func(error) {}
	if _, err := st.AddStreamlet("flaky", nil, flaky); err != nil {
		t.Fatal(err)
	}
	if err := st.Supervise("flaky", SupervisionConfig{
		Supervision: streamlet.Supervision{
			Policy:         streamlet.PolicyRetry,
			ProcessTimeout: 5 * time.Millisecond,
			RetryBackoff:   100 * time.Microsecond,
		},
	}); err != nil {
		t.Fatal(err)
	}
	in, err := st.OpenInlet(ref("flaky", "pi"), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.OpenOutlet(ref("flaky", "po"))
	if err != nil {
		t.Fatal(err)
	}
	st.Start()

	const total = 8
	for i := 0; i < total; i++ {
		if err := in.Send(mime.NewMessage(services.TypePlainText, []byte(fmt.Sprintf("m-%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		if _, err := out.Receive(10 * time.Second); err != nil {
			t.Fatalf("after %d deliveries: %v", i, err)
		}
	}
	st.End()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d after End, want <= %d", n, before)
	}
}

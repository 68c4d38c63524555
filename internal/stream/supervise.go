package stream

// Stream-level fault supervision: the escalation half of the fault
// subsystem. The streamlet supervisor (internal/streamlet/supervisor.go)
// contains panics, deadlines and per-message policies; this file wires its
// terminal FaultRecords into the event system (ExecutionFault context
// events) and, when configured, heals the composition through the same
// Figure 7-4 reconfiguration protocol the paper uses for bandwidth changes:
// replace the faulting instance with a spare, or remove it from a linear
// position. Suspend → drain → modify → reactivate, so no queued message is
// lost (§6.6).

import (
	"fmt"
	"time"

	"mobigate/internal/event"
	"mobigate/internal/obs"
	"mobigate/internal/streamlet"
)

// mFaultHeals counts completed self-healing reconfigurations.
var mFaultHeals = obs.DefaultCounter(obs.MFaultHealsTotal)

// HealAction selects how the stream reconfigures itself once an instance's
// terminal faults reach the threshold.
type HealAction int

const (
	// HealNone raises events but leaves the topology alone.
	HealNone HealAction = iota
	// HealReplace swaps the faulting instance for a spare built by the
	// Spare factory (the Figure 7-4 replace protocol).
	HealReplace
	// HealRemove takes the faulting instance out of its linear position,
	// bridging its upstream channel to its consumer (the remove protocol).
	HealRemove
)

var healNames = [...]string{"none", "replace", "remove"}

func (h HealAction) String() string {
	if int(h) < len(healNames) {
		return healNames[h]
	}
	return fmt.Sprintf("HealAction(%d)", int(h))
}

// SupervisionConfig is the per-instance fault policy at stream level: the
// streamlet-layer Supervision plus the reconfiguration escalation.
type SupervisionConfig struct {
	streamlet.Supervision

	// Heal selects the reconfiguration run after FaultThreshold terminal
	// faults.
	Heal HealAction
	// Spare builds the replacement processor (required for HealReplace).
	// The spare inherits the faulting instance's declaration, bindings,
	// and this supervision config.
	Spare func() streamlet.Processor
	// FaultThreshold is how many terminal faults trigger healing
	// (default 1).
	FaultThreshold int
	// HealDrainTimeout bounds the heal reconfiguration's drain waits
	// (default 1s).
	HealDrainTimeout time.Duration
}

func (c SupervisionConfig) withDefaults() SupervisionConfig {
	if c.FaultThreshold <= 0 {
		c.FaultThreshold = 1
	}
	if c.HealDrainTimeout <= 0 {
		c.HealDrainTimeout = drainWait
	}
	return c
}

// SetEventSink attaches an event manager the stream posts ExecutionFault
// context events to (source-directed at this stream, so a gateway running
// many sessions does not cross-trigger). Events flow through the same
// subscribe/multicast loop as network variations, closing the paper's
// event → reconfigure circle for faults.
func (st *Stream) SetEventSink(mgr *event.Manager) {
	st.mu.Lock()
	st.events = mgr
	st.mu.Unlock()
}

// postFault raises one ExecutionFault context event (non-blocking; the
// event manager sheds on overload). Every genuine fault also freezes the
// flight recorder into an auto-dump before anything reacts, so the journal
// around the fault survives even if recovery churns the rings afterwards —
// and even when no event manager is attached.
func (st *Stream) postFault(id string) {
	if id != event.STREAMLET_HEALED {
		obs.FlightAutoDump("ExecutionFault:" + id + " stream=" + st.name)
	}
	st.mu.Lock()
	mgr := st.events
	st.mu.Unlock()
	if mgr == nil {
		return
	}
	mgr.Post(event.ContextEvent{EventID: id, Category: event.ExecutionFault, Source: st.name})
}

func faultEventID(k streamlet.FaultKind) string {
	switch k {
	case streamlet.FaultPanic:
		return event.STREAMLET_PANIC
	case streamlet.FaultStall:
		return event.STREAMLET_STALL
	default:
		return event.STREAMLET_ERROR
	}
}

// Supervise installs a fault policy on a native streamlet instance:
// streamlet-level containment plus stream-level event raising and healing.
func (st *Stream) Supervise(inst string, cfg SupervisionConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Heal == HealReplace && cfg.Spare == nil {
		return fmt.Errorf("stream %s: supervise %s: HealReplace requires a Spare factory", st.name, inst)
	}
	sl := st.Streamlet(inst)
	if sl == nil {
		return fmt.Errorf("stream %s: no native streamlet %q to supervise", st.name, inst)
	}
	sl.Supervise(cfg.Supervision)
	sl.OnFault(func(rec streamlet.FaultRecord) { st.handleFault(inst, cfg, rec) })
	return nil
}

// handleFault runs on the faulting worker goroutine: it raises the event
// and, at the threshold, spawns the heal (never synchronously — the worker
// must keep draining so the heal's own quiesce wait can succeed).
func (st *Stream) handleFault(inst string, cfg SupervisionConfig, rec streamlet.FaultRecord) {
	obs.FlightRecord(obs.FlightFault, inst, rec.Kind.String()+" "+rec.MsgID, 0)
	st.postFault(faultEventID(rec.Kind))
	if cfg.Heal == HealNone || rec.Recovered {
		// Recovered records surface as events but do not escalate: the
		// message came through, so the topology needs no repair.
		return
	}
	st.mu.Lock()
	if st.ended || st.healing[inst] {
		st.mu.Unlock()
		return
	}
	if st.faultCounts == nil {
		st.faultCounts = make(map[string]int)
	}
	st.faultCounts[inst]++
	if st.faultCounts[inst] < cfg.FaultThreshold {
		st.mu.Unlock()
		return
	}
	if st.healing == nil {
		st.healing = make(map[string]bool)
	}
	st.healing[inst] = true
	st.faultCounts[inst] = 0
	st.mu.Unlock()
	go st.heal(inst, cfg)
}

// heal performs the self-healing reconfiguration for one instance.
func (st *Stream) heal(inst string, cfg SupervisionConfig) {
	defer func() {
		st.mu.Lock()
		delete(st.healing, inst)
		st.mu.Unlock()
	}()
	// The heal bracket mirrors the reconfiguration wrappers in fuse.go: a
	// fused segment around the faulting instance dissolves before the drain
	// (a fused member's own quiesce signal is only meaningful at its segment
	// head), and the pass re-runs once the topology is repaired.
	st.fuseMu.Lock()
	err := st.defuseTouching("heal", inst)
	if err == nil {
		switch cfg.Heal {
		case HealReplace:
			err = st.healReplace(inst, cfg)
		case HealRemove:
			err = st.remove(inst, cfg.HealDrainTimeout)
		}
	}
	st.fusePass()
	st.fuseMu.Unlock()
	if err != nil {
		st.fail(fmt.Errorf("stream %s: heal %s (%s): %w", st.name, inst, cfg.Heal, err))
		return
	}
	mFaultHeals.Inc()
	obs.FlightRecord(obs.FlightHeal, inst, cfg.Heal.String(), 0)
	st.postFault(event.STREAMLET_HEALED)
}

// healReplace drains and swaps the faulting instance for a spare under the
// Figure 7-4 protocol. The spare takes over the old instance's queues (so
// parked messages survive) and inherits its supervision config — a flaky
// replacement heals again.
func (st *Stream) healReplace(inst string, cfg SupervisionConfig) error {
	st.mu.Lock()
	if _, err := st.node(inst); err != nil {
		st.mu.Unlock()
		return err
	}
	// Suspend every producer feeding the instance, then let its in-flight
	// messages finish before the swap: Replace transfers the queues intact,
	// so only the pump→worker handoff could lose a message — draining it
	// first keeps the §6.6 no-loss property.
	// The instance is paused too so its pump stops fetching what is still
	// queued: a message it took after the drain would fault into postFault,
	// which waits for st.mu while replace holds it and waits for the worker.
	var paused []node
	for _, c := range st.conns {
		if c.to.Inst == inst {
			if p, err := st.node(c.from.Inst); err == nil {
				paused = append(paused, p)
			}
		}
	}
	nt, err := st.node(inst)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	paused = append(paused, nt)
	decl := st.decls[inst]
	st.spareSeq++
	spareID := fmt.Sprintf("%s~%d", inst, st.spareSeq)
	st.mu.Unlock()

	resume := func() {
		for _, p := range paused {
			p.activate()
		}
	}
	for _, p := range paused {
		p.pause()
	}
	if !waitUntil(time.Now().Add(cfg.HealDrainTimeout), nt.quiesced) {
		resume()
		mDrainTimeouts.Inc()
		obs.FlightRecord(obs.FlightDrain, st.name, "heal-replace "+inst+" timeout", int64(cfg.HealDrainTimeout))
		return fmt.Errorf("drain %s: %w", inst, ErrDrainTimeout)
	}

	if _, err := st.AddStreamlet(spareID, decl, cfg.Spare()); err != nil {
		resume()
		return err
	}
	if err := st.replace(inst, spareID); err != nil {
		resume()
		return err
	}
	// Replace reactivated the producers; arm the spare with the same policy.
	return st.Supervise(spareID, cfg)
}

package experiments

import (
	"fmt"
	"time"

	"mobigate/internal/event"
	"mobigate/internal/mcl"
	"mobigate/internal/netem"
	"mobigate/internal/obs"
	"mobigate/internal/services"
	"mobigate/internal/stream"
	"mobigate/internal/streamlet"
)

// HopsConfig parameterizes the per-hop time-composition run (§7.3): one
// webaccel session over an emulated link, decomposed hop by hop from the
// coordination plane's trace records.
type HopsConfig struct {
	BandwidthBps int64
	Delay        time.Duration
	LossRate     float64
	Messages     int
	ImageRatio   float64
	Seed         int64
}

// DefaultHopsConfig runs the breakdown at 100 Kb/s so the compressor branch
// is on the edge of engaging (use a lower bandwidth to see the tc hop).
func DefaultHopsConfig() HopsConfig {
	return HopsConfig{
		BandwidthBps: 100_000,
		Delay:        time.Millisecond,
		Messages:     60,
		ImageRatio:   0.5,
		Seed:         2004,
	}
}

// HopRow aggregates the trace records of one streamlet across every message
// that visited it.
type HopRow struct {
	// Streamlet is the composition-variable id from the MCL script.
	Streamlet string
	// Messages is how many messages recorded a hop at this streamlet.
	Messages int
	// AvgQueueWait is the mean time spent queued before the streamlet
	// fetched the message.
	AvgQueueWait time.Duration
	// AvgProcess is the mean Processor execution time.
	AvgProcess time.Duration
	// BytesIn and BytesOut total the message bodies entering and leaving
	// the streamlet, showing where the flow shrinks.
	BytesIn, BytesOut int64
}

// HopBreakdown is the §7.3-style decomposition of where a session's time
// goes: queue waits and processing per streamlet, plus the modelled
// transmission cost of the emulated link.
type HopBreakdown struct {
	SessionID string
	// Messages that reached the communicator and crossed the link.
	Delivered int
	Rows      []HopRow
	// AvgTransmit is the mean per-message modelled transfer time.
	AvgTransmit time.Duration
	// Reconfigured reports whether the compressor branch was active.
	Reconfigured bool
}

// Hops runs one webaccel session over a virtual link with tracing on and
// aggregates the coordination plane's per-hop trace records into a time
// breakdown. No Processor code is involved in the measurement: every number
// comes from the trace chain the streamlet runtime appends.
func Hops(cfg HopsConfig) (HopBreakdown, error) {
	var out HopBreakdown

	link := netem.MustNew(netem.Config{BandwidthBps: cfg.BandwidthBps, Delay: cfg.Delay, LossRate: cfg.LossRate})
	defer link.Close()
	comm := &services.Communicator{SinkTo: link}
	dir := streamlet.NewDirectory()
	services.RegisterAll(dir)
	dir.Register("net/communicator", func() streamlet.Processor { return comm })

	compiled, err := mcl.Compile(WebAccelScript, nil)
	if err != nil {
		return out, err
	}
	st, err := stream.FromConfig(compiled, "webaccel", nil, dir)
	if err != nil {
		return out, err
	}
	defer st.End()
	inlet, err := st.OpenInlet(mcl.PortRef{Inst: "sw", Port: "pi"}, 1<<24)
	if err != nil {
		return out, err
	}
	st.Start()
	out.SessionID = st.SessionID()

	if cfg.BandwidthBps < CompressorThresholdBps {
		st.OnEvent(event.ContextEvent{EventID: event.LOW_BANDWIDTH, Category: event.NetworkVariation})
		out.Reconfigured = true
	}

	for _, m := range services.MixedWorkload(cfg.Messages, cfg.ImageRatio, cfg.Seed) {
		if err := inlet.Send(m); err != nil {
			return out, err
		}
	}
	deadline := time.Now().Add(time.Minute)
	var delivered uint64
	for {
		sent, errs := comm.Stats()
		delivered = sent
		if sent+errs+st.Dropped() >= uint64(cfg.Messages) {
			break
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("pipeline stalled: %d/%d messages", sent, cfg.Messages)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The communicator counts a message as sent inside Process, but files
	// its hop record only after Process returns: let the chain settle
	// before reading the traces.
	for !st.CanTerminate() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	out.Delivered = int(delivered)
	if delivered > 0 {
		out.AvgTransmit = link.Elapsed() / time.Duration(delivered)
	}

	// Fold the session's trace chains into per-streamlet aggregates, keeping
	// first-appearance order so the table reads in pipeline order.
	type acc struct {
		n                 int
		wait, process     time.Duration
		bytesIn, bytesOut int64
	}
	accs := map[string]*acc{}
	var order []string
	for _, rec := range obs.Traces().Session(out.SessionID) {
		for _, h := range rec.Hops {
			a := accs[h.Streamlet]
			if a == nil {
				a = &acc{}
				accs[h.Streamlet] = a
				order = append(order, h.Streamlet)
			}
			a.n++
			a.wait += h.QueueWait
			a.process += h.Process
			a.bytesIn += int64(h.BytesIn)
			a.bytesOut += int64(h.BytesOut)
		}
	}
	for _, id := range order {
		a := accs[id]
		out.Rows = append(out.Rows, HopRow{
			Streamlet:    id,
			Messages:     a.n,
			AvgQueueWait: a.wait / time.Duration(a.n),
			AvgProcess:   a.process / time.Duration(a.n),
			BytesIn:      a.bytesIn,
			BytesOut:     a.bytesOut,
		})
	}
	return out, nil
}

// String renders the breakdown as the §7.3 time-composition table.
func (b HopBreakdown) String() string {
	s := fmt.Sprintf("per-hop breakdown, session %s (%d delivered, compressor=%v)\n",
		b.SessionID, b.Delivered, b.Reconfigured)
	s += fmt.Sprintf("  %-12s %8s %14s %14s %12s %12s\n",
		"streamlet", "msgs", "avgQueueWait", "avgProcess", "bytesIn", "bytesOut")
	for _, r := range b.Rows {
		s += fmt.Sprintf("  %-12s %8d %14v %14v %12d %12d\n",
			r.Streamlet, r.Messages,
			r.AvgQueueWait.Round(time.Microsecond), r.AvgProcess.Round(time.Microsecond),
			r.BytesIn, r.BytesOut)
	}
	s += fmt.Sprintf("  %-12s %8d %14s %14v\n", "link", b.Delivered, "-", b.AvgTransmit.Round(time.Microsecond))
	return s
}

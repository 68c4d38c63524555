package obs

// The flight recorder: a fixed-size lock-sharded ring journal of plane
// events — enqueue/dequeue, suspend/activate, drain, heal, fault, blackout,
// reconfiguration, handoff — with nanosecond timestamps. It is always on
// for control-plane events (they are rare and are exactly what an incident
// post-mortem needs); the high-rate data-plane events (enqueue/dequeue) are
// journaled only while span tracing is enabled, both to keep the spans-off
// hot path free of the recording cost and because at full message rate they
// would churn the ring in milliseconds and overwrite the control-plane
// record they are meant to contextualize.
//
// The journal is dumped automatically when a stream raises an
// ExecutionFault context event (stream.postFault calls FlightAutoDump) and
// on demand via the /debug/flight endpoint.

import (
	"encoding/json"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FlightCode classifies one journal entry.
type FlightCode uint8

const (
	// FlightEnqueue / FlightDequeue are data-plane queue events (journaled
	// only while spans are enabled; see package comment).
	FlightEnqueue FlightCode = iota
	FlightDequeue
	// FlightSuspend / FlightActivate are streamlet lifecycle transitions.
	FlightSuspend
	FlightActivate
	// FlightDrain marks a reconfiguration drain outcome (Detail: "ok" or
	// "timeout").
	FlightDrain
	// FlightHeal is a completed self-healing reconfiguration.
	FlightHeal
	// FlightFault is a streamlet fault surfacing as an ExecutionFault.
	FlightFault
	// FlightBlackout / FlightRestored are link outage transitions.
	FlightBlackout
	FlightRestored
	// FlightReconfig is a completed stream reconfiguration (Value: total
	// nanoseconds).
	FlightReconfig
	// FlightHandoff is a vertical handoff between emulated networks.
	FlightHandoff
	// FlightBandwidth is a link bandwidth change or monitor threshold
	// crossing (Value: bits per second).
	FlightBandwidth
	// FlightEvent is a context event posted to the event manager.
	FlightEvent
	// FlightSLO is a latency-budget violation raised by the SLO tracker.
	FlightSLO
	// FlightAdapt is a when-policy firing by the adaptation autopilot
	// (Subject: "stream/rule-id"; Detail: condition, trigger reading, and
	// action; Value: the reading that fired the rule).
	FlightAdapt
	// FlightBatchFlush is a batched post flush on a queue (Value: items
	// moved). Data-plane: journaled only while spans are enabled, like
	// enqueue/dequeue.
	FlightBatchFlush
	// FlightSessionConnect / FlightSessionDisconnect are logical-session
	// lifecycle transitions in the session layer (Subject: session id;
	// Detail on disconnect: "drained" or "forced"; Value on disconnect:
	// messages delivered).
	FlightSessionConnect
	FlightSessionDisconnect
	// FlightSessionShed is an admission-controller refusal (Subject: the
	// refused session id; Detail: "table-full" or "plane-saturated").
	// Per-message load and quota sheds are counted, not journaled — at full
	// rate they would churn the ring.
	FlightSessionShed
	// FlightHealthDegraded / FlightHealthRecovered are edge-triggered
	// component-health transitions from the health model (Subject: the
	// component name; Detail: the degradation reason; Value: the reading
	// that crossed).
	FlightHealthDegraded
	FlightHealthRecovered
	// FlightFuse / FlightDefuse are fused-segment transitions: a stateless
	// pipeline segment collapsed into a direct-call fused hop, or dissolved
	// back into per-hop execution (Subject: the stream; Detail: the member
	// chain or the dissolve reason; Value: the member count). Journaled only
	// while spans are enabled, like the other data-plane codes — fusion
	// flips on the hot path, and the defuse counter plus the fused-segments
	// gauge carry the always-on record.
	FlightFuse
	FlightDefuse
)

var flightCodeNames = [...]string{
	"enqueue", "dequeue", "suspend", "activate", "drain", "heal", "fault",
	"blackout", "restored", "reconfig", "handoff", "bandwidth", "event", "slo",
	"adapt", "batch-flush",
	"session-connect", "session-disconnect", "session-shed",
	"health-degraded", "health-recovered", "fuse", "defuse",
}

func (c FlightCode) String() string {
	if int(c) < len(flightCodeNames) {
		return flightCodeNames[c]
	}
	return "code-" + strconv.Itoa(int(c))
}

// MarshalJSON renders the code as its name so dumps are self-describing.
func (c FlightCode) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts the name form, so dumps round-trip through tooling.
func (c *FlightCode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range flightCodeNames {
		if name == s {
			*c = FlightCode(i)
			return nil
		}
	}
	if strings.HasPrefix(s, "code-") {
		n, err := strconv.Atoi(s[len("code-"):])
		if err != nil {
			return err
		}
		*c = FlightCode(n)
		return nil
	}
	return errors.New("obs: unknown flight code " + strconv.Quote(s))
}

// FlightEntry is one journal record.
type FlightEntry struct {
	// Seq is the global recording order (monotonically increasing across
	// shards).
	Seq uint64 `json:"seq"`
	// TsNs is the MonoNow stamp at recording.
	TsNs int64 `json:"tsNs"`
	// Code classifies the event.
	Code FlightCode `json:"code"`
	// Subject names the object the event happened to (queue, streamlet,
	// stream, link).
	Subject string `json:"subject"`
	// Detail carries event-specific context (message id, fault kind,
	// bandwidth-schedule step).
	Detail string `json:"detail,omitempty"`
	// Value carries an event-specific number (bytes, nanoseconds, bps).
	Value int64 `json:"value,omitempty"`
}

// flightShards is the lock-sharding fan-out; entries are spread round-robin
// by sequence number so concurrent recorders rarely contend.
const flightShards = 8

// defaultFlightPerShard bounds each shard's ring: the recorder retains the
// most recent flightShards*defaultFlightPerShard events.
const defaultFlightPerShard = 2048

// DefaultFlightDumpLimit caps the entries in one dump; older entries are
// truncated (Truncated reports it) so an auto-dump stays bounded.
const DefaultFlightDumpLimit = 4096

type flightShard struct {
	mu   sync.Mutex
	ring []FlightEntry
	n    uint64 // total entries written; ring index = n % len
}

// FlightRecorder is the journal. One process-wide instance (Flight())
// serves every plane; Record is safe for concurrent use.
type FlightRecorder struct {
	seq    *Counter // doubles as flight_events_total
	dumps  *Counter
	shards [flightShards]flightShard

	dumpMu   sync.Mutex
	lastDump *FlightDump
}

// NewFlightRecorder creates a recorder with perShard ring capacity (<=0
// selects the default).
func NewFlightRecorder(perShard int) *FlightRecorder {
	if perShard <= 0 {
		perShard = defaultFlightPerShard
	}
	f := &FlightRecorder{seq: &Counter{}, dumps: &Counter{}}
	for i := range f.shards {
		f.shards[i].ring = make([]FlightEntry, perShard)
	}
	return f
}

var defaultFlight = func() *FlightRecorder {
	f := NewFlightRecorder(defaultFlightPerShard)
	f.seq = DefaultCounter(MFlightEventsTotal)
	f.dumps = DefaultCounter(MFlightDumpsTotal)
	return f
}()

// Flight returns the shared process-wide flight recorder.
func Flight() *FlightRecorder { return defaultFlight }

// Record journals one event. The sequence counter is the registry's
// flight_events_total, so the journal volume is visible on /metrics at no
// extra atomic.
func (f *FlightRecorder) Record(code FlightCode, subject, detail string, value int64) {
	seq := f.seq.v.Add(1)
	e := FlightEntry{Seq: seq, TsNs: MonoNow(), Code: code, Subject: subject, Detail: detail, Value: value}
	sh := &f.shards[seq&(flightShards-1)]
	sh.mu.Lock()
	sh.ring[sh.n%uint64(len(sh.ring))] = e
	sh.n++
	sh.mu.Unlock()
}

// Events returns the lifetime journal volume.
func (f *FlightRecorder) Events() uint64 { return f.seq.Value() }

// FlightDump is one captured journal snapshot.
type FlightDump struct {
	// Reason says what triggered the dump ("" for on-demand snapshots).
	Reason string `json:"reason,omitempty"`
	// CapturedAt is the wall-clock capture time.
	CapturedAt string `json:"capturedAt"`
	// Total is how many retained entries existed at capture; when it
	// exceeds len(Events) the oldest were truncated.
	Total     int  `json:"totalEvents"`
	Truncated bool `json:"truncated"`
	// Events are the journal entries in sequence order (oldest first).
	Events []FlightEntry `json:"events"`
}

// Snapshot captures the retained journal, keeping at most limit entries
// (<=0 selects DefaultFlightDumpLimit; truncation drops the oldest).
func (f *FlightRecorder) Snapshot(limit int) FlightDump {
	if limit <= 0 {
		limit = DefaultFlightDumpLimit
	}
	var all []FlightEntry
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		filled := sh.n
		if filled > uint64(len(sh.ring)) {
			filled = uint64(len(sh.ring))
		}
		start := sh.n - filled
		for j := uint64(0); j < filled; j++ {
			all = append(all, sh.ring[(start+j)%uint64(len(sh.ring))])
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	d := FlightDump{
		CapturedAt: time.Now().Format(time.RFC3339Nano),
		Total:      len(all),
	}
	if len(all) > limit {
		all = all[len(all)-limit:]
		d.Truncated = true
	}
	d.Events = all
	return d
}

// AutoDump captures a snapshot, stores it as the last dump (retrievable via
// LastDump and /debug/flight) and counts it. Called by the stream layer on
// every ExecutionFault so the journal around an incident survives the churn
// that follows it.
func (f *FlightRecorder) AutoDump(reason string) FlightDump {
	d := f.Snapshot(DefaultFlightDumpLimit)
	d.Reason = reason
	f.dumpMu.Lock()
	f.lastDump = &d
	f.dumpMu.Unlock()
	f.dumps.Inc()
	return d
}

// LastDump returns the most recent auto-dump (ok=false when none yet).
func (f *FlightRecorder) LastDump() (FlightDump, bool) {
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	if f.lastDump == nil {
		return FlightDump{}, false
	}
	return *f.lastDump, true
}

// Dumps returns how many auto-dumps were captured.
func (f *FlightRecorder) Dumps() uint64 { return f.dumps.Value() }

// FlightRecord journals into the shared recorder — the one-liner the
// instrumentation points use.
func FlightRecord(code FlightCode, subject, detail string, value int64) {
	defaultFlight.Record(code, subject, detail, value)
}

// FlightAutoDump captures an incident dump on the shared recorder.
func FlightAutoDump(reason string) FlightDump { return defaultFlight.AutoDump(reason) }

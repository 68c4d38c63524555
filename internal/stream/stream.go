// Package stream implements the Stream base abstraction of thesis §6.3: the
// coordinator-side object that manages a composition of streamlets — its
// initial connection setup, the composition primitives (connect, insert,
// remove, replace), and event-driven reconfiguration. The reconfiguration
// protocol follows Figure 7-4: suspend the affected producer, detach and
// re-attach channels, then reactivate, so that no queued message is lost
// (§6.6).
package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/event"
	"mobigate/internal/mcl"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
	"mobigate/internal/streamlet"
)

// mReconfigSeconds observes every reconfiguration's Equation 7-1 total.
var mReconfigSeconds = obs.DefaultHistogram(obs.MStreamReconfigSeconds, nil)

// mDrainTimeouts counts reconfigurations aborted because draining did not
// finish before the deadline (§6.6: better to abort than to strand queued
// messages by detaching anyway).
var mDrainTimeouts = obs.DefaultCounter(obs.MStreamDrainTimeoutsTotal)

// ErrDrainTimeout reports that a reconfiguration's drain deadline passed
// with messages still queued or in flight. The reconfiguration was aborted
// and the suspended producer reactivated; no message was stranded. Callers
// retry with a longer deadline or escalate.
var ErrDrainTimeout = errors.New("stream: drain deadline exceeded, reconfiguration aborted")

// node is a composition member: a native streamlet or a nested composite
// stream reused as a streamlet (§4.4.2).
type node interface {
	bindIn(port string, q *queue.Queue) error
	bindOut(port string, q *queue.Queue) error
	detachIn(port string)
	detachOut(port string)
	start()
	pause()
	activate()
	end()
	canTerminate() bool
	quiesced() bool
	processed() uint64
	dropped() uint64
	ins() map[string]*queue.Queue
	outs() map[string]*queue.Queue
}

// nativeNode wraps a streamlet instance.
type nativeNode struct{ s *streamlet.Streamlet }

func (n nativeNode) bindIn(port string, q *queue.Queue) error  { n.s.SetIn(port, q); return nil }
func (n nativeNode) bindOut(port string, q *queue.Queue) error { n.s.SetOut(port, q); return nil }
func (n nativeNode) detachIn(port string)                      { n.s.DetachIn(port) }
func (n nativeNode) detachOut(port string)                     { n.s.DetachOut(port) }
func (n nativeNode) start()                                    { n.s.Start() }
func (n nativeNode) pause()                                    { n.s.Pause() }
func (n nativeNode) activate()                                 { n.s.Activate() }
func (n nativeNode) end()                                      { n.s.End() }
func (n nativeNode) canTerminate() bool                        { return n.s.CanTerminate() }
func (n nativeNode) quiesced() bool                            { return n.s.Quiesced() }
func (n nativeNode) processed() uint64                         { return n.s.Processed() }
func (n nativeNode) dropped() uint64                           { return n.s.Dropped() }
func (n nativeNode) ins() map[string]*queue.Queue              { return n.s.Ins() }
func (n nativeNode) outs() map[string]*queue.Queue             { return n.s.Outs() }

// compositeNode wraps an inner stream behind a composite interface.
type compositeNode struct {
	inner   *Stream
	portMap map[string]mcl.PortRef
}

func (c compositeNode) resolve(port string) (mcl.PortRef, error) {
	ref, ok := c.portMap[port]
	if !ok {
		return mcl.PortRef{}, fmt.Errorf("stream: composite %s has no port %q", c.inner.name, port)
	}
	return ref, nil
}

func (c compositeNode) bindIn(port string, q *queue.Queue) error {
	ref, err := c.resolve(port)
	if err != nil {
		return err
	}
	return c.inner.BindInRef(ref, q)
}

func (c compositeNode) bindOut(port string, q *queue.Queue) error {
	ref, err := c.resolve(port)
	if err != nil {
		return err
	}
	return c.inner.BindOutRef(ref, q)
}

func (c compositeNode) detachIn(port string) {
	if ref, err := c.resolve(port); err == nil {
		c.inner.DetachInRef(ref)
	}
}

func (c compositeNode) detachOut(port string) {
	if ref, err := c.resolve(port); err == nil {
		c.inner.DetachOutRef(ref)
	}
}

func (c compositeNode) ins() map[string]*queue.Queue {
	out := make(map[string]*queue.Queue)
	for port, ref := range c.portMap {
		if q := c.inner.boundIn(ref); q != nil {
			out[port] = q
		}
	}
	return out
}

func (c compositeNode) outs() map[string]*queue.Queue {
	out := make(map[string]*queue.Queue)
	for port, ref := range c.portMap {
		if q := c.inner.boundOut(ref); q != nil {
			out[port] = q
		}
	}
	return out
}

func (c compositeNode) start()             { c.inner.Start() }
func (c compositeNode) pause()             { c.inner.PauseAll() }
func (c compositeNode) activate()          { c.inner.ActivateAll() }
func (c compositeNode) end()               { c.inner.End() }
func (c compositeNode) canTerminate() bool { return c.inner.CanTerminate() }
func (c compositeNode) quiesced() bool     { return c.inner.Quiesced() }
func (c compositeNode) processed() uint64  { return c.inner.Processed() }
func (c compositeNode) dropped() uint64    { return c.inner.Dropped() }

// liveConn is one active connection: producer port → queue → consumer port.
type liveConn struct {
	from mcl.PortRef
	to   mcl.PortRef
	q    *queue.Queue
}

// ReconfigTiming decomposes the last reconfiguration per Equation 7-1:
// T = Σ suspends + n·channel-creation + Σ activations.
type ReconfigTiming struct {
	Suspend  time.Duration
	Channels time.Duration
	Activate time.Duration
}

// Total returns the summed reconfiguration time.
func (t ReconfigTiming) Total() time.Duration { return t.Suspend + t.Channels + t.Activate }

// Stream is a running composition instance.
type Stream struct {
	name      string
	sessionID string
	pool      *msgpool.Pool
	dir       *streamlet.Directory

	// ErrorHandler receives asynchronous streamlet errors.
	ErrorHandler func(error)

	file *mcl.File
	cfg  *mcl.Config

	mu     sync.Mutex
	nodes  map[string]node
	decls  map[string]*mcl.StreamletDecl
	queues map[string]*queue.Queue
	conns  []liveConn
	whens  map[string][]mcl.Stmt
	// pendingDetach records break-keep sinks left attached to drain after a
	// disconnect; they are detached before the channel is reused (§4.2.2).
	pendingDetach map[*queue.Queue]mcl.PortRef
	started       bool
	ended         bool
	implicit      int // counter for implicit channel names

	// Fault supervision state (supervise.go): the sink ExecutionFault
	// events are posted to, per-instance terminal-fault counts, instances
	// with a heal in flight, and the spare-id sequence.
	events      *event.Manager
	faultCounts map[string]int
	healing     map[string]bool
	spareSeq    int

	lastTiming ReconfigTiming
	reconfigs  atomic.Uint64

	// consumed is the count every member reports the messages it finished
	// with into (streamlet.ShareConsumed); composites share their parent's.
	consumed *atomic.Int64

	// Fusion state (fuse.go): the live fused segments, the opt-out switch,
	// and the mutex serializing fuse/defuse passes together with the
	// reconfigurations they bracket. fuseMu is taken before st.mu and never
	// while holding it.
	fuseMu    sync.Mutex
	fused     []*fusedSeg
	fusionOff bool
}

var sessionCounter atomic.Uint64

// New creates an empty stream for programmatic composition. pool may be nil
// (a fresh by-reference pool is created); dir may be nil when every
// streamlet is added via AddStreamlet with an explicit processor.
func New(name string, pool *msgpool.Pool, dir *streamlet.Directory) *Stream {
	if pool == nil {
		pool = msgpool.New(msgpool.ByReference)
	}
	return &Stream{
		name:          name,
		sessionID:     fmt.Sprintf("sess-%s-%d", name, sessionCounter.Add(1)),
		pool:          pool,
		dir:           dir,
		nodes:         make(map[string]node),
		decls:         make(map[string]*mcl.StreamletDecl),
		queues:        make(map[string]*queue.Queue),
		whens:         make(map[string][]mcl.Stmt),
		pendingDetach: make(map[*queue.Queue]mcl.PortRef),
		consumed:      new(atomic.Int64),
	}
}

// Name returns the stream name.
func (st *Stream) Name() string { return st.name }

// SessionID returns the unique session identifier messages of this stream
// are tagged with (§4.4.3).
func (st *Stream) SessionID() string { return st.sessionID }

// Pool returns the stream's message pool.
func (st *Stream) Pool() *msgpool.Pool { return st.pool }

// SubscriberName implements event.Subscriber.
func (st *Stream) SubscriberName() string { return st.name }

// LastReconfigTiming returns the Equation 7-1 decomposition of the most
// recent reconfiguration.
func (st *Stream) LastReconfigTiming() ReconfigTiming {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastTiming
}

// Reconfigurations returns how many reconfiguration actions have run.
func (st *Stream) Reconfigurations() uint64 { return st.reconfigs.Load() }

// SetLatencyBudget configures (or, with budget <= 0, removes) the
// end-to-end latency budget for this stream's session in the gateway SLO
// tracker. Terminal span hops feed the tracker; when the observed latency
// first exceeds the budget an SLO_VIOLATION context event is raised through
// the stream's event sink (edge-triggered — one event per excursion, not
// per message). Spans must be enabled for observations to flow.
func (st *Stream) SetLatencyBudget(budget time.Duration) {
	if budget <= 0 {
		obs.SLO().Remove(st.sessionID)
		return
	}
	obs.SLO().SetBudget(st.sessionID, budget, func(v obs.SLOViolation) {
		st.mu.Lock()
		mgr := st.events
		st.mu.Unlock()
		if mgr != nil {
			mgr.Post(event.ContextEvent{EventID: event.SLO_VIOLATION, Category: event.ExecutionFault, Source: st.name})
		}
	})
}

// AddStreamlet adds a native streamlet instance with an explicit processor.
func (st *Stream) AddStreamlet(id string, decl *mcl.StreamletDecl, proc streamlet.Processor) (*streamlet.Streamlet, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addStreamletLocked(id, decl, proc)
}

func (st *Stream) addStreamletLocked(id string, decl *mcl.StreamletDecl, proc streamlet.Processor) (*streamlet.Streamlet, error) {
	if _, dup := st.nodes[id]; dup {
		return nil, fmt.Errorf("stream %s: duplicate instance %q", st.name, id)
	}
	s := streamlet.New(id, decl, proc, st.pool)
	s.ErrorHandler = st.fail
	s.ShareConsumed(st.consumed)
	st.nodes[id] = nativeNode{s: s}
	st.decls[id] = decl
	if st.started {
		s.Start()
	}
	return s, nil
}

// AddComposite nests an inner stream as a composite streamlet instance.
func (st *Stream) AddComposite(id string, inner *Stream, portMap map[string]mcl.PortRef) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.nodes[id]; dup {
		return fmt.Errorf("stream %s: duplicate instance %q", st.name, id)
	}
	inner.shareConsumed(st.consumed)
	st.nodes[id] = compositeNode{inner: inner, portMap: portMap}
	if st.started {
		inner.Start()
	}
	return nil
}

// NewStreamlet instantiates a streamlet from the directory by declaration
// (the new-streamlet primitive). Declaration param-* attributes are applied
// through the processor's control interface (§8.2.1).
func (st *Stream) NewStreamlet(id string, decl *mcl.StreamletDecl) error {
	if st.dir == nil {
		return fmt.Errorf("stream %s: no streamlet directory", st.name)
	}
	factory, err := st.dir.Lookup(decl.Library)
	if err != nil {
		return fmt.Errorf("stream %s: instance %s: %w", st.name, id, err)
	}
	if decl.Workers > 1 {
		// The declaration asks for parallel fan-out; the library must have
		// advertised that its Process tolerates it. The MCL layer already
		// rejected STATEFUL declarations; this closes the gap for stateless
		// declarations over libraries that never opted in.
		if decl.Kind != mcl.Stateless {
			return fmt.Errorf("stream %s: instance %s: workers = %d requires a STATELESS streamlet", st.name, id, decl.Workers)
		}
		if !st.dir.Traits(decl.Library).Parallelizable {
			return fmt.Errorf("stream %s: instance %s: library %s is not registered as parallelizable; workers = %d refused",
				st.name, id, decl.Library, decl.Workers)
		}
	}
	proc := factory()
	if err := streamlet.Configure(proc, decl.Params); err != nil {
		return fmt.Errorf("stream %s: instance %s: %w", st.name, id, err)
	}
	_, err = st.AddStreamlet(id, decl, proc)
	return err
}

// SetParam routes a runtime parameter change to a native streamlet's
// control interface — the coordinator-to-streamlet channel of §8.2.1 that
// is distinct from the data ports.
func (st *Stream) SetParam(inst, name, value string) error {
	sl := st.Streamlet(inst)
	if sl == nil {
		return fmt.Errorf("stream %s: no native streamlet %q", st.name, inst)
	}
	return streamlet.Configure(sl.Processor(), map[string]string{name: value})
}

// NewChannel creates a channel instance from a declaration (new-channel).
func (st *Stream) NewChannel(id string, decl *mcl.ChannelDecl) (*queue.Queue, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.queues[id]; dup {
		return nil, fmt.Errorf("stream %s: duplicate channel %q", st.name, id)
	}
	q := queue.FromDecl(id, decl)
	st.queues[id] = q
	return q, nil
}

// Queue returns a channel instance by name (nil if absent).
func (st *Stream) Queue(id string) *queue.Queue {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.queues[id]
}

// Streamlet returns the native streamlet behind an instance id, or nil.
func (st *Stream) Streamlet(id string) *streamlet.Streamlet {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, ok := st.nodes[id].(nativeNode); ok {
		return n.s
	}
	return nil
}

// Inner returns the nested stream behind a composite instance, or nil.
func (st *Stream) Inner(id string) *Stream {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, ok := st.nodes[id].(compositeNode); ok {
		return n.inner
	}
	return nil
}

// Instances returns the current instance ids (unordered).
func (st *Stream) Instances() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.nodes))
	for id := range st.nodes {
		out = append(out, id)
	}
	return out
}

func (st *Stream) node(id string) (node, error) {
	n, ok := st.nodes[id]
	if !ok {
		return nil, fmt.Errorf("stream %s: unknown instance %q", st.name, id)
	}
	return n, nil
}

func (st *Stream) connectLocked(from, to mcl.PortRef, q *queue.Queue) error {
	nf, err := st.node(from.Inst)
	if err != nil {
		return err
	}
	nt, err := st.node(to.Inst)
	if err != nil {
		return err
	}
	if q == nil {
		st.implicit++
		q = queue.New(fmt.Sprintf("%s-implicit-%d", st.name, st.implicit), queue.Options{})
	}
	if err := nf.bindOut(from.Port, q); err != nil {
		return err
	}
	if err := nt.bindIn(to.Port, q); err != nil {
		nf.detachOut(from.Port)
		return err
	}
	st.conns = append(st.conns, liveConn{from: from, to: to, q: q})
	return nil
}

func (st *Stream) disconnectLocked(from, to mcl.PortRef) error {
	idx := -1
	for i, c := range st.conns {
		if c.from == from && c.to == to {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Positions differ between compiled refs and runtime refs; compare
		// by instance and port only.
		for i, c := range st.conns {
			if c.from.Inst == from.Inst && c.from.Port == from.Port &&
				c.to.Inst == to.Inst && c.to.Port == to.Port {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		return fmt.Errorf("stream %s: no connection %s -> %s", st.name, from, to)
	}
	c := st.conns[idx]

	// Category semantics: ask the queue what detaching the source implies.
	detachSink, err := c.q.Detach(queue.SourceSide)
	if err != nil {
		return err
	}
	if nf, err := st.node(c.from.Inst); err == nil {
		nf.detachOut(c.from.Port)
	}
	if detachSink {
		if nt, err := st.node(c.to.Inst); err == nil {
			nt.detachIn(c.to.Port)
		}
	} else if c.q.Category() == mcl.CatBK {
		// Break-keep: the sink stays attached to drain pending units; it is
		// detached lazily when the channel is reused or the stream ends.
		st.pendingDetach[c.q] = c.to
	} else {
		if nt, err := st.node(c.to.Inst); err == nil {
			nt.detachIn(c.to.Port)
		}
	}
	st.conns = append(st.conns[:idx], st.conns[idx+1:]...)
	return nil
}

// disconnectAll severs every connection touching an instance (body of the
// DisconnectAll wrapper in fuse.go).
func (st *Stream) disconnectAll(inst string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var pairs [][2]mcl.PortRef
	for _, c := range st.conns {
		if c.from.Inst == inst || c.to.Inst == inst {
			pairs = append(pairs, [2]mcl.PortRef{c.from, c.to})
		}
	}
	for _, p := range pairs {
		if err := st.disconnectLocked(p[0], p[1]); err != nil {
			return err
		}
	}
	return nil
}

// BindInRef / BindOutRef / DetachInRef / DetachOutRef expose port binding
// for external I/O (inlets/outlets) and composite nesting.
func (st *Stream) BindInRef(ref mcl.PortRef, q *queue.Queue) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.node(ref.Inst)
	if err != nil {
		return err
	}
	return n.bindIn(ref.Port, q)
}

func (st *Stream) BindOutRef(ref mcl.PortRef, q *queue.Queue) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.node(ref.Inst)
	if err != nil {
		return err
	}
	return n.bindOut(ref.Port, q)
}

func (st *Stream) DetachInRef(ref mcl.PortRef) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, err := st.node(ref.Inst); err == nil {
		n.detachIn(ref.Port)
	}
}

func (st *Stream) DetachOutRef(ref mcl.PortRef) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, err := st.node(ref.Inst); err == nil {
		n.detachOut(ref.Port)
	}
}

// insert is the Figure 7-4 splice body behind the Insert wrapper in
// fuse.go, which de-fuses the splice point first.
func (st *Stream) insert(pInst, cInst, newInst, newInPort, newOutPort string) error {
	st.mu.Lock()

	found := false
	for i := range st.conns {
		if st.conns[i].from.Inst == pInst && st.conns[i].to.Inst == cInst {
			found = true
			break
		}
	}
	if !found {
		st.mu.Unlock()
		return fmt.Errorf("stream %s: no connection between %s and %s", st.name, pInst, cInst)
	}
	np, err := st.node(pInst)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	nn, err := st.node(newInst)
	if err != nil {
		st.mu.Unlock()
		return err
	}

	var timing ReconfigTiming
	t0 := time.Now()
	np.pause() // step 2: suspend the producer
	timing.Suspend = time.Since(t0)
	st.mu.Unlock()

	// Message-loss avoidance (§6.6): the suspended producer must finish its
	// in-flight messages before its output port is detached — an emission
	// into the unbound port during the rebind window would be lost.
	if !waitUntil(time.Now().Add(drainWait), np.quiesced) {
		np.activate()
		mDrainTimeouts.Inc()
		obs.FlightRecord(obs.FlightDrain, st.name, "insert "+newInst+" timeout", int64(drainWait))
		return fmt.Errorf("stream %s: insert %s: %w (after %v)", st.name, newInst, ErrDrainTimeout, drainWait)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-resolve the connection: the routing table may have shifted while
	// the lock was released for the drain.
	var conn *liveConn
	for i := range st.conns {
		if st.conns[i].from.Inst == pInst && st.conns[i].to.Inst == cInst {
			conn = &st.conns[i]
			break
		}
	}
	if conn == nil {
		np.activate()
		return fmt.Errorf("stream %s: connection between %s and %s vanished during drain", st.name, pInst, cInst)
	}

	t1 := time.Now()
	m := conn.q
	np.detachOut(conn.from.Port)                      // step 3: detach p from channel m
	if err := nn.bindOut(newOutPort, m); err != nil { // step 4: attach new to m
		_ = st.connectRebind(np, conn.from.Port, m)
		np.activate()
		return err
	}
	// Step 5: create channel n between p and the new streamlet.
	st.implicit++
	n := queue.New(fmt.Sprintf("%s-ins-%d", st.name, st.implicit), queue.Options{})
	if err := np.bindOut(conn.from.Port, n); err != nil {
		np.activate()
		return err
	}
	if err := nn.bindIn(newInPort, n); err != nil {
		np.activate()
		return err
	}
	timing.Channels = time.Since(t1)

	// Routing table update: p→new via n, new→c via m.
	oldTo := conn.to
	newRef := func(port string) mcl.PortRef { return mcl.PortRef{Inst: newInst, Port: port} }
	conn.to = newRef(newInPort)
	conn.q = n
	st.conns = append(st.conns, liveConn{from: newRef(newOutPort), to: oldTo, q: m})

	t2 := time.Now()
	np.activate() // step 6
	timing.Activate = time.Since(t2)

	st.recordReconfigLocked(timing)
	return nil
}

func (st *Stream) connectRebind(n node, port string, q *queue.Queue) error {
	return n.bindOut(port, q)
}

// remove takes instance t out of a linear position: its upstream producer
// is suspended and allowed to finish its in-flight message, t is drained
// (Figure 6-8 prerequisites), t's downstream channel is drained by its
// consumer, the upstream channel is re-attached to that consumer, and the
// producer is reactivated. t itself is ended and discarded. The drain steps
// are what §6.6's message-loss avoidance requires: without them, messages
// parked between t and its consumer would be stranded by the re-attach.
// Body of the Remove wrapper in fuse.go, which de-fuses around t first.
func (st *Stream) remove(t string, drainTimeout time.Duration) error {
	st.mu.Lock()

	var inConn, outConn liveConn
	var hasIn, hasOut bool
	for i := range st.conns {
		if st.conns[i].to.Inst == t {
			if hasIn {
				st.mu.Unlock()
				return fmt.Errorf("stream %s: %s has multiple inputs; remove manually", st.name, t)
			}
			inConn, hasIn = st.conns[i], true
		}
		if st.conns[i].from.Inst == t {
			if hasOut {
				st.mu.Unlock()
				return fmt.Errorf("stream %s: %s has multiple outputs; remove manually", st.name, t)
			}
			outConn, hasOut = st.conns[i], true
		}
	}
	nt, err := st.node(t)
	if err != nil {
		st.mu.Unlock()
		return err
	}

	var producer node
	if hasIn {
		if p, err := st.node(inConn.from.Inst); err == nil {
			producer = p
		}
	}
	var timing ReconfigTiming
	t0 := time.Now()
	if producer != nil {
		producer.pause()
	}
	timing.Suspend = time.Since(t0)
	st.mu.Unlock()

	// Message-loss avoidance (§6.6): let the suspended producer finish its
	// in-flight message, wait for t to drain, then wait for t's consumer to
	// empty the downstream channel before it is re-attached upstream. If any
	// wait times out, the reconfiguration is aborted — detaching anyway would
	// strand the undrained messages, exactly the silent loss the protocol
	// exists to prevent.
	deadline := time.Now().Add(drainTimeout)
	drained := producer == nil || waitUntil(deadline, producer.quiesced)
	drained = drained && waitUntil(deadline, nt.canTerminate)
	if drained && hasOut {
		drained = waitUntil(deadline, outConn.q.Empty)
	}
	if !drained {
		if producer != nil {
			producer.activate()
		}
		mDrainTimeouts.Inc()
		obs.FlightRecord(obs.FlightDrain, st.name, "remove "+t+" timeout", int64(drainTimeout))
		return fmt.Errorf("stream %s: remove %s: %w (after %v)", st.name, t, ErrDrainTimeout, drainTimeout)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	t1 := time.Now()
	switch {
	case hasIn && hasOut:
		// Bridge: upstream channel m now feeds t's consumer directly.
		m := inConn.q
		downTo := outConn.to
		nt.detachIn(inConn.to.Port)
		nt.detachOut(outConn.from.Port)
		if nd, err := st.node(downTo.Inst); err == nil {
			nd.detachIn(downTo.Port)
			if err := nd.bindIn(downTo.Port, m); err != nil {
				return err
			}
		}
		st.retargetConnLocked(inConn.from, inConn.to, downTo)
		st.removeConnLocked(outConn.from, downTo)
	case hasIn:
		nt.detachIn(inConn.to.Port)
		st.removeConnLocked(inConn.from, inConn.to)
		if np, err := st.node(inConn.from.Inst); err == nil {
			np.detachOut(inConn.from.Port)
		}
	case hasOut:
		nt.detachOut(outConn.from.Port)
		st.removeConnLocked(outConn.from, outConn.to)
	}
	timing.Channels = time.Since(t1)

	nt.end()
	delete(st.nodes, t)
	delete(st.decls, t)

	t2 := time.Now()
	if producer != nil {
		producer.activate()
	}
	timing.Activate = time.Since(t2)
	st.recordReconfigLocked(timing)
	return nil
}

// recordReconfigLocked finalizes one reconfiguration's accounting (timing
// snapshot, lifetime count, registry histogram); the caller holds st.mu.
func (st *Stream) recordReconfigLocked(t ReconfigTiming) {
	st.lastTiming = t
	st.reconfigs.Add(1)
	mReconfigSeconds.Observe(t.Total().Seconds())
	obs.FlightRecord(obs.FlightReconfig, st.name, "", int64(t.Total()))
}

// waitUntil polls cond until it holds or the deadline passes, reporting
// whether cond held.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// retargetConnLocked updates the routing-table row (from → oldTo) to point
// at newTo.
func (st *Stream) retargetConnLocked(from, oldTo, newTo mcl.PortRef) {
	for i := range st.conns {
		if st.conns[i].from.Inst == from.Inst && st.conns[i].from.Port == from.Port &&
			st.conns[i].to.Inst == oldTo.Inst && st.conns[i].to.Port == oldTo.Port {
			st.conns[i].to = newTo
			return
		}
	}
}

func (st *Stream) removeConnLocked(from, to mcl.PortRef) {
	for i := range st.conns {
		if st.conns[i].from.Inst == from.Inst && st.conns[i].from.Port == from.Port &&
			st.conns[i].to.Inst == to.Inst && st.conns[i].to.Port == to.Port {
			st.conns = append(st.conns[:i], st.conns[i+1:]...)
			return
		}
	}
}

// replace swaps instance old for instance alt, which must already be added
// and have ports of the same names. Producers feeding old are suspended
// during the swap. Body of the Replace wrapper in fuse.go.
func (st *Stream) replace(old, alt string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	no, err := st.node(old)
	if err != nil {
		return err
	}
	na, err := st.node(alt)
	if err != nil {
		return err
	}

	var producers []node
	for _, c := range st.conns {
		if c.to.Inst == old {
			if p, err := st.node(c.from.Inst); err == nil {
				producers = append(producers, p)
			}
		}
	}
	var timing ReconfigTiming
	t0 := time.Now()
	for _, p := range producers {
		p.pause()
	}
	timing.Suspend = time.Since(t0)

	t1 := time.Now()
	// Transfer every binding — including inlets/outlets not recorded in the
	// routing table — then fix up the routing table rows.
	for port, q := range no.ins() {
		no.detachIn(port)
		if err := na.bindIn(port, q); err != nil {
			return err
		}
	}
	for port, q := range no.outs() {
		no.detachOut(port)
		if err := na.bindOut(port, q); err != nil {
			return err
		}
	}
	for i := range st.conns {
		if st.conns[i].to.Inst == old {
			st.conns[i].to.Inst = alt
		}
		if st.conns[i].from.Inst == old {
			st.conns[i].from.Inst = alt
		}
	}
	timing.Channels = time.Since(t1)

	no.end()
	delete(st.nodes, old)
	delete(st.decls, old)

	t2 := time.Now()
	for _, p := range producers {
		p.activate()
	}
	timing.Activate = time.Since(t2)
	st.recordReconfigLocked(timing)
	return nil
}

// Start activates every member (initConfig deployment), then runs the
// first fusion pass over the now-live composition.
func (st *Stream) Start() {
	st.mu.Lock()
	if st.started {
		st.mu.Unlock()
		return
	}
	st.started = true
	for _, n := range st.nodes {
		n.start()
	}
	st.mu.Unlock()
	st.fuseMu.Lock()
	st.fusePass()
	st.fuseMu.Unlock()
}

// PauseAll suspends every member (the PAUSE system command).
func (st *Stream) PauseAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, n := range st.nodes {
		n.pause()
	}
}

// ActivateAll resumes every member (RESUME).
func (st *Stream) ActivateAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, n := range st.nodes {
		n.activate()
	}
}

// Quiesced reports that no member is processing or holding an in-flight
// message.
func (st *Stream) Quiesced() bool {
	st.mu.Lock()
	nodes := make([]node, 0, len(st.nodes))
	for _, n := range st.nodes {
		nodes = append(nodes, n)
	}
	st.mu.Unlock()
	for _, n := range nodes {
		if !n.quiesced() {
			return false
		}
	}
	return true
}

// CanTerminate reports whether every member satisfies the Figure 6-8
// termination prerequisites.
func (st *Stream) CanTerminate() bool {
	st.mu.Lock()
	nodes := make([]node, 0, len(st.nodes))
	for _, n := range st.nodes {
		nodes = append(nodes, n)
	}
	st.mu.Unlock()
	for _, n := range nodes {
		if !n.canTerminate() {
			return false
		}
	}
	return true
}

// Processed sums processed-message counts across members.
func (st *Stream) Processed() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total uint64
	for _, n := range st.nodes {
		total += n.processed()
	}
	return total
}

// Dropped sums messages dropped by full output queues across members
// (the wait-then-drop policy of §6.7).
func (st *Stream) Dropped() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total uint64
	for _, n := range st.nodes {
		total += n.dropped()
	}
	return total
}

// Consumed returns the net number of messages the chain finished with
// other than by delivering them at an exit: dropped, filtered out, failed
// or abandoned, less the extra messages fan-out made. Once the feed has
// closed, fed == delivered + Consumed() holds exactly when the chain holds
// no message.
func (st *Stream) Consumed() int64 { return st.consumed.Load() }

// shareConsumed points the stream and every member at c, so a composite
// reports into its enclosing stream's count.
func (st *Stream) shareConsumed(c *atomic.Int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.consumed = c
	for _, n := range st.nodes {
		switch n := n.(type) {
		case nativeNode:
			n.s.ShareConsumed(c)
		case compositeNode:
			n.inner.shareConsumed(c)
		}
	}
}

// End terminates every member and closes every channel (END).
func (st *Stream) End() {
	st.mu.Lock()
	if st.ended {
		st.mu.Unlock()
		return
	}
	st.ended = true
	nodes := make([]node, 0, len(st.nodes))
	for _, n := range st.nodes {
		nodes = append(nodes, n)
	}
	queues := make([]*queue.Queue, 0, len(st.queues))
	for _, q := range st.queues {
		queues = append(queues, q)
	}
	for _, c := range st.conns {
		queues = append(queues, c.q)
	}
	st.mu.Unlock()

	for _, n := range nodes {
		n.end()
	}
	for _, q := range queues {
		q.Close()
	}
	st.dropFusedOnEnd()
	// The session will observe no further latencies; drop its SLO chain.
	obs.SLO().Remove(st.sessionID)
}

// OnEvent implements event.Subscriber: system commands map to lifecycle
// operations, and events named in when-blocks trigger their actions (§6.3).
func (st *Stream) OnEvent(evt event.ContextEvent) {
	switch evt.EventID {
	case event.PAUSE:
		st.PauseAll()
		return
	case event.RESUME:
		st.ActivateAll()
		return
	case event.END:
		st.End()
		return
	}
	if err := st.RunWhen(evt.EventID); err != nil {
		st.fail(fmt.Errorf("stream %s: when(%s): %w", st.name, evt.EventID, err))
	}
}

// Whens lists the event identifiers this stream reacts to.
func (st *Stream) Whens() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.whens))
	for ev := range st.whens {
		out = append(out, ev)
	}
	return out
}

// SetWhen registers reconfiguration actions for an event identifier.
func (st *Stream) SetWhen(eventID string, actions []mcl.Stmt) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.whens[eventID] = actions
}

func (st *Stream) fail(err error) {
	if st.ErrorHandler != nil {
		st.ErrorHandler(err)
	}
}

// boundIn returns the queue currently bound to an inner input port.
func (st *Stream) boundIn(ref mcl.PortRef) *queue.Queue {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.node(ref.Inst)
	if err != nil {
		return nil
	}
	return n.ins()[ref.Port]
}

// boundOut returns the queue currently bound to an inner output port.
func (st *Stream) boundOut(ref mcl.PortRef) *queue.Queue {
	st.mu.Lock()
	defer st.mu.Unlock()
	n, err := st.node(ref.Inst)
	if err != nil {
		return nil
	}
	return n.outs()[ref.Port]
}

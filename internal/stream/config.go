package stream

import (
	"fmt"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
	"mobigate/internal/streamlet"
)

// drainWait bounds how long reconfiguration waits for a reused channel or a
// removed streamlet to drain before proceeding (§6.6).
const drainWait = time.Second

// FromConfig instantiates a compiled stream configuration: every declared
// streamlet (native instances resolved through the directory, composite
// instances built recursively), every channel instance, the initial
// connections, and the when-block reactions. The stream is returned
// un-started; call Start.
func FromConfig(cfg *mcl.Config, name string, pool *msgpool.Pool, dir *streamlet.Directory) (*Stream, error) {
	sc := cfg.Stream(name)
	if sc == nil {
		return nil, fmt.Errorf("stream: no compiled stream %q", name)
	}
	st := New(name, pool, dir)
	st.file = cfg.File
	st.cfg = cfg

	for v, ci := range sc.Channels {
		if _, err := st.NewChannel(v, ci.Decl); err != nil {
			return nil, err
		}
	}
	for _, v := range sc.Order {
		inst := sc.Instances[v]
		if inst == nil {
			continue
		}
		switch inst.Kind {
		case mcl.KindStreamlet:
			if err := st.NewStreamlet(v, inst.Decl); err != nil {
				return nil, err
			}
		case mcl.KindComposite:
			inner, err := FromConfig(cfg, inst.Stream, st.pool, dir)
			if err != nil {
				return nil, fmt.Errorf("composite %s: %w", v, err)
			}
			if err := st.AddComposite(v, inner, inst.PortMap); err != nil {
				return nil, err
			}
		}
	}
	for _, conn := range sc.Connections {
		var q *queue.Queue
		if conn.Channel != "" {
			q = st.Queue(conn.Channel)
			if q == nil {
				return nil, fmt.Errorf("stream %s: channel %q not instantiated", name, conn.Channel)
			}
		}
		if err := st.Connect(conn.From, conn.To, q); err != nil {
			return nil, err
		}
	}
	for _, w := range sc.Whens {
		st.SetWhen(w.Event, w.Actions)
	}
	return st, nil
}

// RunWhen executes the reconfiguration actions registered for an event
// identifier; it is a no-op when the stream has no matching when-block.
func (st *Stream) RunWhen(eventID string) error {
	st.mu.Lock()
	actions := st.whens[eventID]
	st.mu.Unlock()
	if len(actions) == 0 {
		return nil
	}
	var timing ReconfigTiming
	for _, a := range actions {
		t, err := st.applyStmt(a)
		if err != nil {
			return err
		}
		timing.Suspend += t.Suspend
		timing.Channels += t.Channels
		timing.Activate += t.Activate
	}
	st.mu.Lock()
	st.recordReconfigLocked(timing)
	st.mu.Unlock()
	return nil
}

// applyStmt executes one composition statement at runtime under the
// Figure 7-4 suspend/modify/reactivate protocol.
func (st *Stream) applyStmt(a mcl.Stmt) (ReconfigTiming, error) {
	var timing ReconfigTiming
	switch s := a.(type) {
	case *mcl.NewStreamletStmt:
		for _, v := range s.Vars {
			st.mu.Lock()
			_, exists := st.nodes[v]
			st.mu.Unlock()
			if exists {
				continue // pre-instantiated by FromConfig
			}
			decl, err := st.resolveDecl(s.Def)
			if err != nil {
				return timing, err
			}
			if err := st.NewStreamlet(v, decl); err != nil {
				return timing, err
			}
			if sl := st.Streamlet(v); sl != nil {
				sl.Start()
			}
		}
	case *mcl.NewChannelStmt:
		for _, v := range s.Vars {
			st.mu.Lock()
			_, exists := st.queues[v]
			st.mu.Unlock()
			if exists {
				continue
			}
			decl, err := st.resolveChannelDecl(s.Def)
			if err != nil {
				return timing, err
			}
			if _, err := st.NewChannel(v, decl); err != nil {
				return timing, err
			}
		}
	case *mcl.ConnectStmt:
		return st.reconfigConnect(s)
	case *mcl.DisconnectStmt:
		t0 := time.Now()
		if err := st.Disconnect(s.From, s.To); err != nil {
			return timing, err
		}
		timing.Channels = time.Since(t0)
	case *mcl.DisconnectAllStmt:
		t0 := time.Now()
		if err := st.DisconnectAll(s.Var); err != nil {
			return timing, err
		}
		timing.Channels = time.Since(t0)
	case *mcl.RemoveStreamletStmt:
		if err := st.Remove(s.Var, drainWait); err != nil {
			return timing, err
		}
		st.mu.Lock()
		timing = st.lastTiming
		st.mu.Unlock()
	case *mcl.RemoveChannelStmt:
		st.mu.Lock()
		if q, ok := st.queues[s.Var]; ok {
			q.Close()
			delete(st.queues, s.Var)
		}
		st.mu.Unlock()
	default:
		return timing, fmt.Errorf("stream %s: unsupported reconfiguration statement %T", st.name, a)
	}
	return timing, nil
}

// reconfigConnect performs a runtime connect with producer suspension and
// reused-channel draining.
func (st *Stream) reconfigConnect(s *mcl.ConnectStmt) (ReconfigTiming, error) {
	var timing ReconfigTiming
	st.mu.Lock()
	producer, err := st.node(s.From.Inst)
	if err != nil {
		st.mu.Unlock()
		return timing, err
	}
	var q *queue.Queue
	if s.Channel != "" {
		q = st.queues[s.Channel]
		if q == nil {
			st.mu.Unlock()
			return timing, fmt.Errorf("stream %s: unknown channel %q", st.name, s.Channel)
		}
	}
	st.mu.Unlock()

	t0 := time.Now()
	producer.pause()
	timing.Suspend = time.Since(t0)

	t1 := time.Now()
	if q != nil {
		st.drainPendingSink(q)
	}
	err = st.Connect(s.From, s.To, q)
	timing.Channels = time.Since(t1)

	t2 := time.Now()
	producer.activate()
	timing.Activate = time.Since(t2)
	if err != nil {
		return timing, err
	}
	return timing, nil
}

// drainPendingSink completes a lazy break-keep detach: if a previous
// disconnect left a sink attached to q to drain pending units, wait for the
// queue to empty (bounded) and detach it before the channel is reused.
func (st *Stream) drainPendingSink(q *queue.Queue) {
	st.mu.Lock()
	ref, pending := st.pendingDetach[q]
	st.mu.Unlock()
	if !pending {
		return
	}
	deadline := time.Now().Add(drainWait)
	for !q.Empty() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if n, err := st.node(ref.Inst); err == nil {
		n.detachIn(ref.Port)
	}
	delete(st.pendingDetach, q)
}

// resolveDecl finds a streamlet declaration by definition name in the
// compiled file backing this stream.
func (st *Stream) resolveDecl(def string) (*mcl.StreamletDecl, error) {
	if st.file == nil {
		return nil, fmt.Errorf("stream %s: no MCL file context for definition %q", st.name, def)
	}
	d, ok := st.file.Streamlet(def)
	if !ok {
		return nil, fmt.Errorf("stream %s: unknown streamlet definition %q", st.name, def)
	}
	return d, nil
}

func (st *Stream) resolveChannelDecl(def string) (*mcl.ChannelDecl, error) {
	if st.file == nil {
		return nil, fmt.Errorf("stream %s: no MCL file context for channel %q", st.name, def)
	}
	d, ok := st.file.Channel(def)
	if !ok {
		return nil, fmt.Errorf("stream %s: unknown channel definition %q", st.name, def)
	}
	return d, nil
}

// Inlet injects application messages into an unfed input port.
type Inlet struct {
	st  *Stream
	q   *queue.Queue
	ref mcl.PortRef
}

// OpenInlet binds a fresh queue to the given (unfed) input port and returns
// an Inlet the application writes to.
func (st *Stream) OpenInlet(ref mcl.PortRef, capacityBytes int) (*Inlet, error) {
	q := queue.New("inlet-"+ref.String(), queue.Options{CapacityBytes: capacityBytes})
	if err := st.BindInRef(ref, q); err != nil {
		return nil, err
	}
	return &Inlet{st: st, q: q, ref: ref}, nil
}

// Send tags the message with the stream session, pools it, and posts it.
// With span tracing enabled it also opens the trace: the message gets a
// fresh trace id and a root inlet span, and every downstream hop parents
// its spans under it via the X-Mobigate-Span header.
func (in *Inlet) Send(m *mime.Message) error {
	m.SetSession(in.st.sessionID)
	var col *obs.SpanCollector
	var traceID, rootID uint64
	var start int64
	if obs.SpansEnabled() {
		col = obs.Spans()
		traceID, rootID = col.NextID(), col.NextID()
		start = col.Now()
		// The header must be set before the message becomes visible to the
		// consumer side (pool.Put / Post publish it to other goroutines).
		m.SetHeader(mime.HeaderSpanContext, obs.EncodeSpanContext(obs.SpanContext{
			TraceID: traceID, ParentID: rootID, StartNs: start,
		}))
	}
	size := m.Len()
	in.st.pool.Put(m)
	if err := in.q.Post(m.ID, size, nil); err != nil {
		in.st.pool.Remove(m.ID)
		return err
	}
	if col != nil {
		col.Record(obs.Span{
			TraceID: traceID, SpanID: rootID,
			Kind: obs.SpanInlet, Site: col.Site(), Name: in.q.Name(),
			StartNs: start, DurNs: col.Now() - start, Bytes: size,
		})
	}
	return nil
}

// Queue exposes the underlying queue (for tests and advanced callers).
func (in *Inlet) Queue() *queue.Queue { return in.q }

// Close closes the inlet queue.
func (in *Inlet) Close() { in.q.Close() }

// Outlet receives application messages from an unconnected output port.
type Outlet struct {
	st  *Stream
	q   *queue.Queue
	ref mcl.PortRef
}

// OpenOutlet binds a fresh queue to the given output port and returns an
// Outlet the application reads from.
func (st *Stream) OpenOutlet(ref mcl.PortRef) (*Outlet, error) {
	q := queue.New("outlet-"+ref.String(), queue.Options{})
	if err := st.BindOutRef(ref, q); err != nil {
		return nil, err
	}
	return &Outlet{st: st, q: q, ref: ref}, nil
}

// Receive waits up to timeout for the next message; the message is removed
// from the pool (final delivery). The timed wait runs on the queue's pooled
// timer — no goroutine, stop channel, or timer allocation per receive.
func (o *Outlet) Receive(timeout time.Duration) (*mime.Message, error) {
	it, ok := o.q.FetchTimeout(timeout)
	if !ok {
		return nil, fmt.Errorf("stream %s: receive on %s timed out after %v", o.st.name, o.ref, timeout)
	}
	m, err := o.st.pool.Get(it.MsgID)
	if err != nil {
		return nil, err
	}
	o.st.pool.Remove(it.MsgID)
	return m, nil
}

// TryReceive returns the next message without blocking (nil when none).
func (o *Outlet) TryReceive() (*mime.Message, error) {
	it, ok := o.q.TryFetch()
	if !ok {
		return nil, nil
	}
	m, err := o.st.pool.Get(it.MsgID)
	if err != nil {
		return nil, err
	}
	o.st.pool.Remove(it.MsgID)
	return m, nil
}

// Queue exposes the underlying queue.
func (o *Outlet) Queue() *queue.Queue { return o.q }

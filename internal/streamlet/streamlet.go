// Package streamlet implements the Streamlet base abstraction of thesis
// §6.1: the runtime wrapper that gives a service entity (a Processor) its
// identity, lifecycle (pause/activate/end), input/output message-queue
// bindings, and the glue that moves message references between the central
// pool and the channels. Streamlet pooling for stateless service entities
// (§3.3.4) and the streamlet directory (§3.3.7) live here too.
package streamlet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// Gateway-wide streamlet metrics; per-instance process latency is a
// labeled histogram created per instance id in New.
var (
	mProcessedTotal  = obs.DefaultCounter(obs.MStreamProcessedTotal)
	mDroppedTotal    = obs.DefaultCounter(obs.MStreamDroppedTotal)
	mTypeErrorsTotal = obs.DefaultCounter(obs.MStreamTypeErrorsTotal)
)

// Input is one message arriving on a named input port.
type Input struct {
	Port string
	Msg  *mime.Message
}

// Emission is one message a processor sends to a named output port. An
// empty Port is resolved to the streamlet's sole output port.
type Emission struct {
	Port string
	Msg  *mime.Message
}

// Processor is the computational content of a streamlet — the processMsg()
// logic the streamlet author supplies (Figure 6-2). Process may return zero
// or more emissions; returning the input message (same pointer) forwards it
// without re-pooling.
type Processor interface {
	Process(in Input) ([]Emission, error)
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(in Input) ([]Emission, error)

// Process calls f.
func (f ProcessorFunc) Process(in Input) ([]Emission, error) { return f(in) }

// Configurable is the control interface of §8.2.1: processors that
// implement it accept operation parameters from the coordinator — at
// instantiation (the declaration's param-* attributes) or at runtime —
// separately from the data ports messages flow through.
type Configurable interface {
	// SetParam sets one named operation parameter; unknown names or
	// unparsable values are errors.
	SetParam(name, value string) error
}

// Unwrapper is implemented by processor decorators (such as the transcode
// cache's memo wrapper); Unwrap returns the decorated processor.
type Unwrapper interface {
	Unwrap() Processor
}

// Base returns the innermost processor behind any decorator chain. The
// runtime consults Base for capability interfaces tied to the computation
// itself (Peered, Configurable), so decorators stay transparent.
func Base(p Processor) Processor {
	for {
		u, ok := p.(Unwrapper)
		if !ok {
			return p
		}
		inner := u.Unwrap()
		if inner == nil {
			return p
		}
		p = inner
	}
}

// Configure applies a parameter map to a processor through its control
// interface. A non-nil params map on a non-Configurable processor is an
// error (the declaration promises tunability the implementation lacks).
func Configure(proc Processor, params map[string]string) error {
	if len(params) == 0 {
		return nil
	}
	c, ok := proc.(Configurable)
	if !ok {
		c, ok = Base(proc).(Configurable)
	}
	if !ok {
		return fmt.Errorf("streamlet: processor %T has no control interface for params %v", proc, params)
	}
	// Deterministic application order for reproducible failures.
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := c.SetParam(k, params[k]); err != nil {
			return fmt.Errorf("streamlet: param %s=%q: %w", k, params[k], err)
		}
	}
	return nil
}

// Peered is implemented by processors whose transformation must be reversed
// by a peer streamlet at the client (§6.5); the runtime appends the peer ID
// to every emitted message's Content-Peers chain.
type Peered interface {
	PeerID() string
}

// State is the streamlet lifecycle state.
type State int32

const (
	// StateCreated is the initial state before Start.
	StateCreated State = iota
	// StateActive is running and processing messages.
	StateActive
	// StatePaused holds processing; queued messages wait (Figure 7-4 uses
	// this during reconfiguration).
	StatePaused
	// StateEnded is terminal.
	StateEnded
)

var stateNames = [...]string{"created", "active", "paused", "ended"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Streamlet is the runtime instance: the stub on the coordination plane
// (its queue bindings) plus its processor on the execution plane.
type Streamlet struct {
	id   string
	decl *mcl.StreamletDecl
	proc Processor
	pool *msgpool.Pool

	// ErrorHandler, when set before Start, receives processing errors (the
	// message that caused one is dropped). Defaults to discarding.
	ErrorHandler func(error)

	// typeCheck, when non-nil, enforces the §4.1 runtime check: every
	// message entering a declared input port must carry a Content-Type
	// equal to or specializing the port's declared type.
	typeCheck *mime.Registry
	typeErrs  atomic.Uint64

	mu    sync.Mutex
	cond  *sync.Cond
	state State
	ins   map[string]*queue.Queue
	outs  map[string]*queue.Queue
	pumps map[string]chan struct{} // per-input stop channels
	// fetchGate is the pause generation signal: open while active, closed
	// by Pause, replaced by Activate. Pumps arm their blocking fetch with
	// it so a pause retracts in-progress fetches instead of letting them
	// pull messages a reconfiguration drain expects to stay queued.
	fetchGate chan struct{}

	work chan workItem // unbuffered handoff from pumps to the worker
	// workB is the batched handoff (nil unless batch > 1 with the serial
	// worker): pumps drain up to batch items in one FetchN and hand the
	// whole slice over in one channel operation (see batch.go).
	workB chan *workBatch
	done  chan struct{}
	wg    sync.WaitGroup

	// sup is the installed fault supervision (nil selects the default:
	// panic containment only). Swapped atomically so Supervise/OnFault are
	// safe against a running worker.
	sup atomic.Pointer[supervision]

	// workers is the execution-plane fan-out width, fixed before Start
	// (from the declaration's workers attribute or SetWorkers). 1 selects
	// the classic serial worker; N > 1 runs N workers feeding the
	// resequencer, which restores fetch order before anything is emitted
	// downstream (see parallel.go).
	workers int
	// batch is the handoff batch size, fixed before Start (from the
	// declaration's batch attribute or SetBatch). 1 selects today's
	// one-message-per-handoff pump; N > 1 drains up to N items per queue
	// lock and — in serial mode — flushes the batch's emissions downstream
	// in one batched post (see batch.go). FIFO order is preserved in both
	// directions, so unlike workers this composes with STATEFUL streamlets.
	batch int
	// seq stamps fetch order onto work items in parallel mode; the
	// resequencer releases completions in seq order.
	seq atomic.Uint64
	// comps carries finished parallel executions to the resequencer
	// (nil in serial mode).
	comps chan *completion
	// tokens is the parallel-mode admission gate: pumps acquire one per
	// fetched item, the resequencer releases it after the item is fully
	// handled. Capacity workers, so at most workers items are in flight and
	// the resequencer parks at most workers-1 completions even when the
	// head message stalls.
	tokens chan struct{}
	// reseqPeak is the high-water mark of completions parked in the
	// resequencer waiting for an earlier sequence number.
	reseqPeak atomic.Int64

	faultPanics   atomic.Uint64
	faultStalls   atomic.Uint64
	faultRetries  atomic.Uint64
	faultDropped  atomic.Uint64
	faultBypassed atomic.Uint64

	processing atomic.Bool
	// inflight counts messages fetched from an input queue but not yet
	// fully handled — including those parked in the pump→worker handoff,
	// which input-queue emptiness alone cannot see.
	inflight  atomic.Int64
	processed atomic.Uint64
	dropped   atomic.Uint64
	// consumed is the stream-wide count this streamlet reports into (nil
	// when standalone; see ShareConsumed).
	consumed *atomic.Int64

	// procHist is the per-instance process-latency histogram, shared with
	// every instance of the same id (per-session deployments reuse MCL
	// instance variable names, so the series aggregates across sessions).
	procHist *obs.Histogram
	// procTick drives sampled latency observation: the first samples after
	// start are always recorded (so low-traffic instances still report),
	// then 1 in procSampleInterval. With tracing off this also elides the
	// two time.Now calls around Process.
	procTick atomic.Uint64
}

// Process-latency sampling parameters (see procTick).
const (
	procSampleWarmup   = 16
	procSampleInterval = 16
)

type workItem struct {
	port  string
	msgID string
	// src is the queue the item came from; acked when handling completes.
	src *queue.Queue
	// wait is how long the message sat in src before the pump fetched it;
	// it becomes the queue-wait field of the message's trace hop.
	wait time.Duration
	// enqueuedNs is the item's enqueue stamp on the obs clock (0 when
	// unstamped); it anchors the queue-wait span, which then also covers
	// the pump→worker handoff.
	enqueuedNs int64
	// seq is the fetch-order stamp in parallel mode (unused when serial).
	seq uint64
}

// spanEmit carries the span identity emit needs to parent forward spans
// (nil when spans are off or the message is outside a trace).
type spanEmit struct {
	traceID    uint64
	procSpanID uint64
}

// New creates a streamlet instance. id is the instance variable name from
// the stream configuration, decl its MCL declaration (may be nil for
// ad-hoc instances), proc its computational content, and pool the shared
// message pool.
func New(id string, decl *mcl.StreamletDecl, proc Processor, pool *msgpool.Pool) *Streamlet {
	s := &Streamlet{
		id:        id,
		decl:      decl,
		proc:      proc,
		pool:      pool,
		workers:   1,
		batch:     1,
		ins:       make(map[string]*queue.Queue),
		outs:      make(map[string]*queue.Queue),
		pumps:     make(map[string]chan struct{}),
		work:      make(chan workItem),
		done:      make(chan struct{}),
		fetchGate: make(chan struct{}),
		procHist:  obs.DefaultHistogram(obs.MStreamletProcessSeconds, obs.Labels{"streamlet": id}),
	}
	if decl != nil && decl.Workers > 1 {
		s.workers = decl.Workers
	}
	if decl != nil && decl.Batch > 1 {
		s.batch = decl.Batch
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ShareConsumed makes the streamlet report into c, the count its stream
// keeps of messages the chain finished with other than by passing them on:
// +1 for each input dropped, filtered out, failed or abandoned, and -(k-1)
// for each input turned into k > 1 emissions. Debits land before the extra
// emissions are posted and credits only once the message is gone, so
// fed - delivered - consumed never undercounts the messages still inside
// the chain. Call before Start.
func (s *Streamlet) ShareConsumed(c *atomic.Int64) {
	s.mu.Lock()
	s.consumed = c
	s.mu.Unlock()
}

// consume adds n to the shared consumption count.
func (s *Streamlet) consume(n int64) {
	if s.consumed != nil && n != 0 {
		s.consumed.Add(n)
	}
}

// settle reports an input that left Process as emissions: every input
// beyond the one becomes a debit, no emission at all a credit.
func (s *Streamlet) settle(emissions []Emission) {
	k := int64(0)
	for _, em := range emissions {
		if em.Msg != nil {
			k++
		}
	}
	s.consume(1 - k)
}

// ID returns the instance identifier.
func (s *Streamlet) ID() string { return s.id }

// Decl returns the MCL declaration (may be nil).
func (s *Streamlet) Decl() *mcl.StreamletDecl { return s.decl }

// Processor returns the computational content.
func (s *Streamlet) Processor() Processor { return s.proc }

// State returns the current lifecycle state.
func (s *Streamlet) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Processed returns the number of messages processed.
func (s *Streamlet) Processed() uint64 { return s.processed.Load() }

// ProcessLatency returns the instance's process-latency distribution (the
// Figure 7-2 per-streamlet cost), drawn from the shared metrics registry.
func (s *Streamlet) ProcessLatency() obs.HistogramSnapshot { return s.procHist.Snapshot() }

// EnableTypeCheck turns on runtime message/port type matching against the
// given registry (nil selects the default registry). Messages that fail
// the check are dropped and reported through the ErrorHandler.
func (s *Streamlet) EnableTypeCheck(reg *mime.Registry) {
	if reg == nil {
		reg = mime.DefaultRegistry()
	}
	s.mu.Lock()
	s.typeCheck = reg
	s.mu.Unlock()
}

// TypeErrors returns how many messages failed the runtime type check.
func (s *Streamlet) TypeErrors() uint64 { return s.typeErrs.Load() }

// Quiesced reports that no fetched message is awaiting or undergoing
// processing. A paused streamlet quiesces once its in-flight messages (if
// any) finish; new input stays parked in its queues.
func (s *Streamlet) Quiesced() bool {
	if s.inflight.Load() != 0 {
		return false
	}
	s.mu.Lock()
	ins := make([]*queue.Queue, 0, len(s.ins))
	for _, q := range s.ins {
		ins = append(ins, q)
	}
	s.mu.Unlock()
	for _, q := range ins {
		if q.InFlight() != 0 {
			return false
		}
	}
	return true
}

// Dropped returns the number of emissions dropped by full output queues.
func (s *Streamlet) Dropped() uint64 { return s.dropped.Load() }

// SetIn binds an input port to a queue (setIn of Figure 6-2): the queue's
// consumer count is incremented and a pump goroutine begins fetching. Any
// previous binding of the port is detached first.
func (s *Streamlet) SetIn(port string, q *queue.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachInLocked(port)
	s.ins[port] = q
	q.IncConsumer()
	if s.state == StateActive || s.state == StatePaused {
		s.startPumpLocked(port, q)
	}
}

// SetOut binds an output port to a queue (setOut): the queue's producer
// count is incremented.
func (s *Streamlet) SetOut(port string, q *queue.Queue) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.outs[port]; ok {
		old.DecProducer()
	}
	s.outs[port] = q
	q.IncProducer()
}

// DetachIn unbinds an input port; the pump stops and the queue's consumer
// count is decremented.
func (s *Streamlet) DetachIn(port string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachInLocked(port)
}

func (s *Streamlet) detachInLocked(port string) {
	if stop, ok := s.pumps[port]; ok {
		close(stop)
		delete(s.pumps, port)
		// A pump parked in fetchableGate (paused) only re-checks its stop
		// channel on a cond wake.
		s.cond.Broadcast()
	}
	if q, ok := s.ins[port]; ok {
		q.DecConsumer()
		delete(s.ins, port)
	}
}

// DetachOut unbinds an output port.
func (s *Streamlet) DetachOut(port string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.outs[port]; ok {
		q.DecProducer()
		delete(s.outs, port)
	}
}

// Ins returns a copy of the current input-port bindings.
func (s *Streamlet) Ins() map[string]*queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*queue.Queue, len(s.ins))
	for p, q := range s.ins {
		out[p] = q
	}
	return out
}

// Outs returns a copy of the current output-port bindings.
func (s *Streamlet) Outs() map[string]*queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*queue.Queue, len(s.outs))
	for p, q := range s.outs {
		out[p] = q
	}
	return out
}

// In returns the queue bound to an input port (nil if unbound).
func (s *Streamlet) In(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ins[port]
}

// Out returns the queue bound to an output port (nil if unbound).
func (s *Streamlet) Out(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outs[port]
}

// Start activates the streamlet: the worker goroutine runs and pumps start
// on every bound input.
func (s *Streamlet) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return
	}
	s.state = StateActive
	if s.batch > 1 && s.workers == 1 {
		// Serial batch mode: pumps hand whole []workItem slices to the
		// worker through workB. (Parallel mode batches only the queue drain;
		// items still fan out one at a time through work — see batch.go.)
		s.workB = make(chan *workBatch)
	}
	if s.workers > 1 {
		// Parallel mode: N workers race on the handoff channel; the
		// resequencer restores fetch order before emissions leave.
		s.comps = make(chan *completion, s.workers*2)
		s.tokens = make(chan struct{}, s.workers)
		s.wg.Add(s.workers + 1)
		for i := 0; i < s.workers; i++ {
			go s.parallelWorker()
		}
		go s.resequencer()
	} else {
		s.wg.Add(1)
		go s.worker()
	}
	for port, q := range s.ins {
		s.startPumpLocked(port, q)
	}
}

// startPumpLocked launches the fetch loop for one input port.
func (s *Streamlet) startPumpLocked(port string, q *queue.Queue) {
	if _, running := s.pumps[port]; running {
		return
	}
	stop := make(chan struct{})
	s.pumps[port] = stop
	par := s.workers > 1 // immutable once started
	if s.batch > 1 {
		// Batched drain: one FetchN per queue lock instead of one Fetch per
		// message (batch.go). The single-item pump below stays byte-for-byte
		// the batch = 1 path.
		s.wg.Add(1)
		go s.batchPump(port, q, stop, par)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			// Drain-then-park: a paused streamlet stops pulling new input.
			// Whatever was already fetched drains through the worker; the
			// rest stays observable in the queues for quiesce checks.
			gate, live := s.fetchableGate(stop)
			if !live {
				return
			}
			it, ok := q.FetchGated(stop, gate)
			if !ok {
				if stopped(stop) || q.Closed() {
					return
				}
				continue // the pause gate fired: park until reactivated
			}
			s.inflight.Add(1)
			item := workItem{port: port, msgID: it.MsgID, src: q, wait: it.Wait, enqueuedNs: it.EnqueuedNs()}
			if par {
				// Fetch order is the order the resequencer must restore.
				// Assigned here (one pump per port fetches serially) so
				// per-port FIFO survives the racy handoff to N workers.
				item.seq = s.seq.Add(1) - 1
				// Admission gate: without it a stalled head message would
				// let the other workers run arbitrarily far ahead and the
				// resequencer's parked set would grow without bound.
				select {
				case s.tokens <- struct{}{}:
				case <-s.done:
					s.abandonTail(q, 1)
					return
				}
			}
			select {
			case s.work <- item:
			case <-stop:
				// The item was fetched but the pump is being detached;
				// putting the reference back would reorder, so hand it to
				// the worker anyway before exiting.
				select {
				case s.work <- item:
				case <-s.done:
					s.abandonTail(q, 1) // abandoned: account it as handled
					return
				}
				return
			case <-s.done:
				s.abandonTail(q, 1)
				return
			}
		}
	}()
}

// Pause suspends input intake (the pause lifecycle method). Closing the
// fetch gate retracts every pump's blocking fetch, so new messages keep
// accumulating on the input queues; messages already fetched still drain
// through the worker, which is what lets a paused streamlet quiesce.
func (s *Streamlet) Pause() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateActive {
		s.state = StatePaused
		close(s.fetchGate)
		s.cond.Broadcast()
		obs.FlightRecord(obs.FlightSuspend, s.id, "", 0)
	}
}

// Activate resumes processing after a Pause.
func (s *Streamlet) Activate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StatePaused {
		s.state = StateActive
		s.fetchGate = make(chan struct{})
		s.cond.Broadcast()
		obs.FlightRecord(obs.FlightActivate, s.id, "", 0)
	}
}

// fetchableGate parks the calling pump while the streamlet is paused and
// returns the gate channel to arm the next fetch with. live=false means
// the pump should exit (its stop fired or the streamlet ended).
func (s *Streamlet) fetchableGate(stop <-chan struct{}) (gate <-chan struct{}, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state == StatePaused {
		if stopped(stop) {
			return nil, false
		}
		s.cond.Wait()
	}
	if stopped(stop) || s.state != StateActive {
		return nil, false
	}
	return s.fetchGate, true
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// CanTerminate evaluates the Figure 6-8 prerequisites for safe removal:
// every message posted to a bound input queue has been fully handled
// (posted == acked covers queued, handoff, and in-processing states with
// no gaps), and nothing fetched from a since-detached queue is pending.
func (s *Streamlet) CanTerminate() bool {
	s.mu.Lock()
	ins := make([]*queue.Queue, 0, len(s.ins))
	for _, q := range s.ins {
		ins = append(ins, q)
	}
	s.mu.Unlock()
	if s.inflight.Load() != 0 {
		return false
	}
	for _, q := range ins {
		if q.Outstanding() != 0 {
			return false
		}
	}
	return true
}

// End terminates the streamlet (the end lifecycle method). All pumps and
// the worker stop; bound queues are detached. Messages already fetched are
// abandoned — callers that must avoid message loss check CanTerminate (or
// use stream-level draining) before calling End.
func (s *Streamlet) End() {
	s.mu.Lock()
	if s.state == StateEnded {
		s.mu.Unlock()
		return
	}
	prev := s.state
	s.state = StateEnded
	for port := range s.pumps {
		close(s.pumps[port])
		delete(s.pumps, port)
	}
	for port, q := range s.ins {
		q.DecConsumer()
		delete(s.ins, port)
	}
	for port, q := range s.outs {
		q.DecProducer()
		delete(s.outs, port)
	}
	close(s.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	if prev != StateCreated {
		s.wg.Wait()
	}
}

// worker is the serial processMsg loop (workers == 1).
func (s *Streamlet) worker() {
	defer s.wg.Done()
	// The worker owns its deadline-executor slot; an in-flight (stalled)
	// call finishes on its own, discards its result, and exits.
	slot := &execSlot{}
	defer slot.close()
	// Batch-mode emission buffering, owned by this goroutine and reused
	// across batches (allocation-free steady state). Nil sink on the
	// single-item path keeps emissions posting immediately, as today.
	var sink emitSink
	for {
		select {
		case <-s.done:
			return
		case it := <-s.work:
			// Paused streamlets still drain items already fetched — the
			// pause gate guarantees no new ones arrive — so reconfiguration
			// drains terminate. Only termination abandons work.
			if s.State() == StateEnded {
				s.abandonTail(it.src, 1) // abandoned on shutdown
				return
			}
			c := s.produce(it, slot)
			s.finish(&c, nil)
			s.inflight.Add(-1)
			it.src.Ack()
		case wb := <-s.workB: // nil channel unless serial batch mode
			if !s.runBatch(wb, slot, &sink) {
				return
			}
		}
	}
}

// completion is the outcome of the parallel-safe stage of one work item
// (produce): pool fetch, type check, and the supervised Process call. The
// serial stage (finish) — counters, trace/span bookkeeping, and downstream
// emission — runs strictly in fetch order: inline on the serial worker, or
// on the resequencer in parallel mode.
type completion struct {
	it   workItem
	res  procRes
	skip bool // pool fetch or type check failed; nothing left to do

	tracing     bool
	sctx        obs.SpanContext
	inChain     string
	session     string
	bytesIn     int
	procStartNs int64
	procDur     time.Duration
}

// produce runs everything that is safe to run concurrently for one work
// item, through the supervised Process call, and captures what finish needs.
func (s *Streamlet) produce(it workItem, slot *execSlot) completion {
	s.processing.Store(true)
	defer s.processing.Store(false)
	c := completion{it: it}
	msg, err := s.pool.Get(it.msgID)
	if err != nil {
		s.fail(fmt.Errorf("streamlet %s: %w", s.id, err))
		c.skip = true
		return c
	}
	if err := s.checkInputType(it.port, msg); err != nil {
		s.typeErrs.Add(1)
		mTypeErrorsTotal.Inc()
		s.fail(err)
		s.pool.Remove(it.msgID)
		c.skip = true
		return c
	}
	c.tracing = obs.TracingEnabled()
	if obs.SpansEnabled() {
		// Only messages already inside a trace (stamped at the inlet) grow
		// spans; everything else pays a single header lookup.
		c.sctx = obs.ParseSpanContext(msg.Header(mime.HeaderSpanContext))
	}
	spans := c.sctx.Valid()
	if c.tracing || spans {
		// Read everything the trace needs before Process runs: a terminal
		// sink may hand the message to another goroutine, after which it
		// must not be touched.
		c.inChain = msg.Header(obs.TraceHeader)
		c.session = msg.Session()
		c.bytesIn = msg.Len()
	}
	// The trace hop needs the exact per-message duration; the histogram is
	// content with a sample. Without either consumer, skip the clock reads.
	tick := s.procTick.Add(1)
	sampleHist := tick <= procSampleWarmup || tick%procSampleInterval == 0
	var procStart time.Time
	if c.tracing || sampleHist || spans {
		procStart = time.Now()
		if spans {
			c.procStartNs = obs.MonoNow()
		}
	}
	c.res = s.supervised(Input{Port: it.port, Msg: msg}, slot)
	if c.tracing || sampleHist || spans {
		c.procDur = time.Since(procStart)
	}
	if sampleHist {
		s.procHist.Observe(c.procDur.Seconds())
	}
	return c
}

// finish is the serial stage: fault disposition, counters, trace/span
// bookkeeping, and downstream emission. Callers guarantee finish runs in
// fetch order (that is the resequencer's whole job). A nil sink posts each
// emission immediately (the classic path); a non-nil sink defers the posts
// into the batch's flush (see batch.go), leaving every other side effect —
// pool forward, peer chain, supersede accounting — exactly in place.
func (s *Streamlet) finish(c *completion, sink *emitSink) {
	if c.skip {
		s.consume(1)
		return
	}
	it := c.it
	res := c.res
	if res.aborted {
		// The streamlet ended mid-call: the message is abandoned exactly as
		// End documents; its pool entry stays for stream-level cleanup.
		s.consume(1)
		return
	}
	if res.err != nil {
		// Fault accounting (dropped counts, fault counters, OnFault) already
		// happened inside the supervisor; here the error surfaces and the
		// pool entry is released.
		s.fail(fmt.Errorf("streamlet %s: process: %w", s.id, res.err))
		s.pool.Remove(it.msgID)
		s.consume(1)
		return
	}
	emissions := res.emissions
	s.settle(emissions)
	if !res.bypassed {
		s.processed.Add(1)
		mProcessedTotal.Inc()
	}

	if c.tracing {
		s.trace(it, c.session, emissions, c.inChain, c.bytesIn, c.procDur)
	}
	var sp *spanEmit
	if c.sctx.Valid() {
		sp = s.span(it, c.sctx, c.session, emissions, c.bytesIn, c.procStartNs, c.procDur)
	}

	peerID := ""
	// A bypassed message was not transformed, so the peer chain must not
	// promise a reversal at the client.
	if p, ok := Base(s.proc).(Peered); ok && !res.bypassed {
		peerID = p.PeerID()
	}

	kept := false
	superseded := make(map[string]bool, len(emissions))
	for _, em := range emissions {
		if em.Msg == nil {
			continue
		}
		if em.Msg.ID == it.msgID {
			kept = true
		}
		if s.emitTo(em, peerID, sp, sink) {
			superseded[em.Msg.ID] = true
		}
	}
	if !kept {
		// Terminal hop: the message may have escaped to another goroutine
		// inside Process (a sink pushing onto a link), so only the pool
		// entry is dropped — the body is never recycled here.
		s.pool.Remove(it.msgID)
	}
	// A by-value pool forwards deep copies; the originals' pool entries are
	// superseded once the copies are on the wire. A superseded original is
	// dead — its deep copy travels onward and processors must not retain
	// input bodies past Process — so its pooled body is recycled.
	for id := range superseded {
		if m := s.pool.Take(id); m != nil {
			m.Recycle()
		}
	}
}

// trace appends this hop to the message's trace chain and files the chain
// in the shared trace store under the message's session. This is purely
// coordination-plane bookkeeping: Processor code never sees or maintains
// trace state, mirroring how the runtime (not the service entity) manages
// the Content-Peers chain.
func (s *Streamlet) trace(it workItem, session string, emissions []Emission, inChain string, bytesIn int, procDur time.Duration) {
	bytesOut := 0
	for _, em := range emissions {
		if em.Msg != nil {
			bytesOut += em.Msg.Len()
		}
	}
	chain := obs.AppendHop(inChain, obs.Hop{
		Streamlet: s.id,
		QueueWait: it.wait,
		Process:   procDur,
		BytesIn:   bytesIn,
		BytesOut:  bytesOut,
	})
	store := obs.Traces()
	emitted := false
	keptInput := false
	for _, em := range emissions {
		if em.Msg == nil {
			continue
		}
		// The chain travels with the message, next to Content-Peers; a
		// processor that minted a fresh message inherits the input's chain.
		em.Msg.SetHeader(obs.TraceHeader, chain)
		if sess := em.Msg.Session(); session == "" {
			session = sess
		}
		store.Record(session, em.Msg.ID, chain)
		emitted = true
		if em.Msg.ID == it.msgID {
			keptInput = true
		}
	}
	switch {
	case !emitted:
		// Terminal hop (a sink such as the communicator): the message may
		// already have escaped to another goroutine inside Process (e.g.
		// pushed onto a link), so it must not be mutated here — only the
		// store carries the complete record, final hop included.
		store.Record(session, it.msgID, chain)
	case !keptInput:
		// The transformation changed the message identity; drop the stale
		// partial chain so per-hop aggregations do not double-count.
		store.Forget(session, it.msgID)
	}
}

// span records this hop's queue-wait and process spans and stamps every
// emission with the downstream span context (parent = this hop's process
// span). At a terminal hop — no emissions, the message left the gateway or
// died here — it instead closes the end-to-end latency against the
// session's configured budget. Like trace, this is coordination-plane
// bookkeeping only; Processor code never sees span state.
func (s *Streamlet) span(it workItem, sctx obs.SpanContext, session string, emissions []Emission, bytesIn int, procStartNs int64, procDur time.Duration) *spanEmit {
	col := obs.Spans()
	// The queue span runs from the enqueue stamp to the start of Process,
	// so it also covers the pump→worker handoff, not just the ring wait.
	qStart := it.enqueuedNs
	if qStart == 0 {
		qStart = procStartNs - int64(it.wait)
	}
	qid := col.NextID()
	col.Record(obs.Span{
		TraceID: sctx.TraceID, SpanID: qid, ParentID: sctx.ParentID,
		Kind: obs.SpanQueue, Site: col.Site(), Name: it.src.Name(),
		StartNs: qStart, DurNs: procStartNs - qStart, Bytes: bytesIn,
	})
	pid := col.NextID()
	col.Record(obs.Span{
		TraceID: sctx.TraceID, SpanID: pid, ParentID: qid,
		Kind: obs.SpanProcess, Site: col.Site(), Name: s.id,
		StartNs: procStartNs, DurNs: int64(procDur), Bytes: bytesIn,
	})
	next := ""
	for _, em := range emissions {
		if em.Msg == nil {
			continue
		}
		if next == "" {
			next = obs.EncodeSpanContext(obs.SpanContext{TraceID: sctx.TraceID, ParentID: pid, StartNs: sctx.StartNs})
		}
		em.Msg.SetHeader(mime.HeaderSpanContext, next)
	}
	if next == "" {
		// Terminal hop: the whole server chain is behind this message, so
		// its end-to-end latency is known — feed the SLO tracker (a no-op
		// unless a budget is configured for the session). The message itself
		// may already have escaped inside Process and is not touched.
		obs.SLO().Observe(session, col.Now()-sctx.StartNs)
		return nil
	}
	return &spanEmit{traceID: sctx.TraceID, procSpanID: pid}
}

// emitTo forwards one emission; it reports whether the pool handed a deep
// copy downstream (by-value mode), in which case the original's pool entry
// is superseded. A non-nil sp wraps the pool forward and queue post in a
// forward span parented under this hop's process span. A non-nil sink
// defers the queue post (only the post — the pool forward and peer chain
// happen here either way) into the batch flush; the supersede verdict is
// known at Forward time, so it is identical on both paths.
func (s *Streamlet) emitTo(em Emission, peerID string, sp *spanEmit, sink *emitSink) (copied bool) {
	q := s.resolveOut(em.Port)
	if q == nil {
		// Open circuit at runtime: the §5.2.2 condition the semantic model
		// exists to prevent. Surface it rather than losing silently.
		s.fail(fmt.Errorf("streamlet %s: no queue bound to output port %q; message %s lost",
			s.id, em.Port, em.Msg.ID))
		s.pool.Remove(em.Msg.ID)
		s.consume(1)
		return false
	}
	var fwdStart int64
	if sp != nil {
		fwdStart = obs.MonoNow()
	}
	if peerID != "" {
		em.Msg.PushPeer(peerID)
	}
	// Body length is read before Post: once the post lands, the message is
	// owned downstream and must not be touched.
	size := em.Msg.Len()
	s.pool.Put(em.Msg)
	fid, err := s.pool.Forward(em.Msg.ID)
	if err != nil {
		s.fail(err)
		s.consume(1)
		return false
	}
	if sink != nil {
		sink.add(sinkEntry{q: q, fid: fid, origID: em.Msg.ID, size: size, sp: sp})
		return fid != em.Msg.ID
	}
	if err := q.Post(fid, size, s.done); err != nil {
		s.dropped.Add(1)
		mDroppedTotal.Inc()
		s.consume(1)
		if fid != em.Msg.ID {
			// The dropped deep copy never left the pool; reclaim its body.
			if c := s.pool.Take(fid); c != nil {
				c.Recycle()
			}
		} else {
			s.pool.Remove(fid)
		}
		if err != queue.ErrDropped {
			s.fail(fmt.Errorf("streamlet %s: post to %s: %w", s.id, q.Name(), err))
		}
		// The post failed; treat the original as superseded anyway when a
		// copy was attempted, so by-value pools do not accumulate.
	} else if sp != nil {
		col := obs.Spans()
		col.Record(obs.Span{
			TraceID: sp.traceID, SpanID: col.NextID(), ParentID: sp.procSpanID,
			Kind: obs.SpanForward, Site: col.Site(), Name: q.Name(),
			StartNs: fwdStart, DurNs: obs.MonoNow() - fwdStart, Bytes: size,
		})
	}
	return fid != em.Msg.ID
}

// resolveOut maps an emission port to a queue; "" resolves to the sole
// bound output.
func (s *Streamlet) resolveOut(port string) *queue.Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port != "" {
		return s.outs[port]
	}
	if len(s.outs) == 1 {
		for _, q := range s.outs {
			return q
		}
	}
	return nil
}

// checkInputType enforces the runtime port-type check of §4.1 when enabled
// and a declaration is available for the port.
func (s *Streamlet) checkInputType(port string, msg *mime.Message) error {
	s.mu.Lock()
	reg := s.typeCheck
	s.mu.Unlock()
	if reg == nil || s.decl == nil {
		return nil
	}
	p, ok := s.decl.Port(port)
	if !ok {
		return nil
	}
	ct := msg.ContentType()
	if !reg.SubtypeOf(ct, p.Type) {
		return fmt.Errorf("streamlet %s: message %s type %s violates port %s : %s; message dropped",
			s.id, msg.ID, ct, port, p.Type)
	}
	return nil
}

func (s *Streamlet) fail(err error) {
	if s.ErrorHandler != nil {
		s.ErrorHandler(err)
	}
}

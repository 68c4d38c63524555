package streamlet

// Fused execution mode: a maximal run of fusable streamlets (STATELESS,
// serial, single-input — see internal/stream's fuse pass for the discovery
// rules) collapses into one *fused hop*. The head streamlet's pump is
// swapped for a segment pump that fetches a batch from the head's input
// queue once, then runs every member's Process back-to-back on its own
// stack — no intermediate queue post/fetch, no msgpool Forward, no
// per-stage deep copy — and posts once at the segment exit through the
// batched emit sink. This is operator fusion in the Reo/compiled-protocol
// sense: the coordination glue between adjacent stateless transforms is
// compiled away while the modular composition (and its observability)
// stays intact:
//
//   - per-member processed/dropped/fault counters stay exact — every stage
//     still runs through its own supervised() policy loop, so panic
//     containment, retry/drop/bypass policies, stall deadlines, and fault
//     attribution are per-member, exactly as unfused;
//   - per-stage trace hops and process spans are synthesized from inside
//     the fused loop (interior hops report zero queue wait, which is the
//     truth — they never waited);
//   - conservation accounting holds: the head's inflight covers each batch
//     from fetch through the exit flush, and the source queue is AckN'd
//     only after the flush lands, so Quiesced, CanTerminate, and the
//     Figure 7-4 drains see fused traffic exactly as unfused traffic.
//
// Message-pool semantics at the seams are preserved: the head performs the
// segment's one pool.Get, the exit performs the one pool.Put+Forward (so a
// by-value pool still isolates the downstream consumer with one deep copy
// per segment instead of one per hop — sound because processors must not
// retain input bodies past Process). Interior identity changes mirror the
// unfused bookkeeping: when a stage does not re-emit its input message id,
// the head's pool entry (the only interior entry that exists) is removed,
// exactly as finish removes a non-kept input.
//
// Interior members keep their own (idle) pumps and workers parked on their
// now-quiet queues; dissolving a segment is therefore just the reverse pump
// swap after a drain, which is what makes fusion dynamically reversible
// under Insert/Remove/SetWorkers and supervisor heals.

import (
	"fmt"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// FusedSegment is the runtime of one fused hop. It is built by the stream
// layer's fuse pass over members it verified fusable, installed on the
// (paused, drained) head via InstallPump, and dissolved via RemovePump.
// All per-item fields are owned by the single pump goroutine.
type FusedSegment struct {
	members []*Streamlet // chain order; members[0] is the head
	ports   []string     // input port of each member
	srcPort string       // the head input port whose pump the segment owns
	batch   int          // fetch batch: max over member batch sizes

	slots []*execSlot // per-member executor slot (stall deadlines)
	sink  emitSink    // exit-post buffer, reused across batches

	// Per-item pool bookkeeping (pump-goroutine-owned): the id of the head
	// pool entry for the item in flight and whether that entry still exists.
	headID   string
	headLive bool
}

// NewFusedSegment assembles a fused segment over members (chain order),
// each fed on the corresponding input port. The caller (the stream fuse
// pass) is responsible for having verified fusability; this constructor
// only checks shape.
func NewFusedSegment(members []*Streamlet, ports []string) (*FusedSegment, error) {
	if len(members) < 2 || len(members) != len(ports) {
		return nil, fmt.Errorf("streamlet: fused segment needs >= 2 members with one input port each (got %d members, %d ports)",
			len(members), len(ports))
	}
	seg := &FusedSegment{
		members: members,
		ports:   ports,
		srcPort: ports[0],
		batch:   1,
		slots:   make([]*execSlot, len(members)),
	}
	for i, m := range members {
		if m.pool != members[0].pool {
			return nil, fmt.Errorf("streamlet: fused members %s and %s use different pools", members[0].id, m.id)
		}
		if b := m.Batch(); b > seg.batch {
			seg.batch = b
		}
		seg.slots[i] = &execSlot{}
	}
	return seg, nil
}

// Members returns the member instance ids in chain order.
func (seg *FusedSegment) Members() []string {
	out := make([]string, len(seg.members))
	for i, m := range seg.members {
		out[i] = m.id
	}
	return out
}

// Head returns the head streamlet.
func (seg *FusedSegment) Head() *Streamlet { return seg.members[0] }

// InstallPump swaps the head's pump on the segment's source port for the
// fused pump. The head must be paused and the whole segment drained (the
// stream layer's Figure 7-4 fuse protocol guarantees both); the fused pump
// parks on the head's pause gate until the head is reactivated. The retired
// normal pump — parked on the same gate — wakes, observes its closed stop
// channel, and exits without fetching.
func (s *Streamlet) InstallPump(seg *FusedSegment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StatePaused {
		return fmt.Errorf("streamlet %s: fused pump install requires the paused head (state %s)", s.id, s.state)
	}
	q, ok := s.ins[seg.srcPort]
	if !ok {
		return fmt.Errorf("streamlet %s: fused pump install: input port %q unbound", s.id, seg.srcPort)
	}
	if stop, running := s.pumps[seg.srcPort]; running {
		close(stop)
		delete(s.pumps, seg.srcPort)
		s.cond.Broadcast()
	}
	stop := make(chan struct{})
	s.pumps[seg.srcPort] = stop
	s.wg.Add(1)
	go seg.pump(q, stop)
	return nil
}

// RemovePump dissolves the fused hop: the fused pump is retired and the
// head's normal pump restored on the source port. The head must again be
// paused and quiesced — the head's inflight covers the fused batch end to
// end, so head quiescence means the fused pump is parked with nothing in
// flight across the whole segment.
func (s *Streamlet) RemovePump(seg *FusedSegment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stop, running := s.pumps[seg.srcPort]; running {
		close(stop)
		delete(s.pumps, seg.srcPort)
		s.cond.Broadcast()
	}
	if q, ok := s.ins[seg.srcPort]; ok && (s.state == StateActive || s.state == StatePaused) {
		s.startPumpLocked(seg.srcPort, q)
	}
	for _, sl := range seg.slots {
		sl.close()
	}
}

// pump is the fused fetch loop: one batched fetch from the head's input
// queue, the whole segment run in-stack per item, one batched exit flush,
// then the conservation settlement. Lifecycle mirrors batchPump — the pause
// gate retracts in-progress fetches, fetched items are delivered through
// the segment even while the pump is being retired, and only head
// termination abandons them with End's documented ack accounting.
func (seg *FusedSegment) pump(q *queue.Queue, stop chan struct{}) {
	head := seg.members[0]
	tail := seg.members[len(seg.members)-1]
	defer head.wg.Done()
	buf := make([]queue.Item, seg.batch) // pump-owned; one allocation per install
	for {
		gate, live := head.fetchableGate(stop)
		if !live {
			return
		}
		n := q.FetchNGated(buf, stop, gate)
		if n == 0 {
			if stopped(stop) || q.Closed() {
				return
			}
			continue // the pause gate fired: park until reactivated
		}
		head.inflight.Add(int64(n))
		if head.State() == StateEnded {
			head.abandonTail(q, n)
			return
		}
		for i := 0; i < n; i++ {
			it := buf[i]
			seg.runOne(workItem{port: seg.srcPort, msgID: it.MsgID, src: q, wait: it.Wait, enqueuedNs: it.EnqueuedNs()})
		}
		tail.flush(&seg.sink)
		head.inflight.Add(int64(-n))
		q.AckN(n)
		if stopped(stop) {
			return
		}
	}
}

// runOne drives one fetched head item through every member. The segment's
// single pool.Get happens here; everything after runs on raw *mime.Message
// references until the exit.
func (seg *FusedSegment) runOne(it workItem) {
	head := seg.members[0]
	msg, err := head.pool.Get(it.msgID)
	if err != nil {
		head.fail(fmt.Errorf("streamlet %s: %w", head.id, err))
		head.consume(1)
		return
	}
	seg.headID = it.msgID
	seg.headLive = true
	seg.runStage(0, msg, it.wait, it.enqueuedNs, it.src)
}

// retire releases the head's pool entry when the message id carrying it
// leaves the segment without being re-emitted — the fused equivalent of
// finish's non-kept pool.Remove. Interior messages minted mid-segment were
// never pooled, so retiring them is a no-op (their unfused pool entries
// would have been created and removed by the hops fusion eliminated).
func (seg *FusedSegment) retire(id string) {
	if seg.headLive && id == seg.headID {
		seg.members[0].pool.Remove(id)
		seg.headLive = false
	}
}

// runStage runs member k's supervised Process on msg and routes the
// emissions: interior emissions recurse into stage k+1 depth-first (which
// keeps the exit order identical to the queued pipeline, fan-out included),
// exit emissions go through the tail's emit path into the deferred sink.
// wait/enqueuedNs/src describe the head fetch and only shape stage 0's
// trace hop and queue span; interior stages report zero queue wait.
func (seg *FusedSegment) runStage(k int, msg *mime.Message, wait time.Duration, enqueuedNs int64, src *queue.Queue) {
	m := seg.members[k]
	port := seg.ports[k]
	if err := m.checkInputType(port, msg); err != nil {
		m.typeErrs.Add(1)
		mTypeErrorsTotal.Inc()
		m.fail(err)
		seg.retire(msg.ID)
		m.consume(1)
		return
	}
	// Mirrors produce: capture what the trace needs before Process runs,
	// sample the latency histogram, and skip every clock read when nothing
	// consumes it.
	tracing := obs.TracingEnabled()
	var sctx obs.SpanContext
	if obs.SpansEnabled() {
		sctx = obs.ParseSpanContext(msg.Header(mime.HeaderSpanContext))
	}
	spans := sctx.Valid()
	var inChain, session string
	var bytesIn int
	if tracing || spans {
		inChain = msg.Header(obs.TraceHeader)
		session = msg.Session()
		bytesIn = msg.Len()
	}
	tick := m.procTick.Add(1)
	sampleHist := tick <= procSampleWarmup || tick%procSampleInterval == 0
	var procStart time.Time
	var procStartNs int64
	if tracing || sampleHist || spans {
		procStart = time.Now()
		if spans {
			procStartNs = obs.MonoNow()
		}
	}
	res := m.supervised(Input{Port: port, Msg: msg}, seg.slots[k])
	var procDur time.Duration
	if tracing || sampleHist || spans {
		procDur = time.Since(procStart)
	}
	if sampleHist {
		m.procHist.Observe(procDur.Seconds())
	}

	// Mirrors finish's dispositions. aborted: the member ended mid-call and
	// the message is abandoned (the head pool entry stays for stream-level
	// cleanup, as End documents). err: the supervisor already accounted the
	// fault; surface it and release the pool entry if this id carries it.
	if res.aborted {
		m.consume(1)
		return
	}
	inID := msg.ID
	if res.err != nil {
		m.fail(fmt.Errorf("streamlet %s: process: %w", m.id, res.err))
		seg.retire(inID)
		m.consume(1)
		return
	}
	if !res.bypassed {
		m.processed.Add(1)
		mProcessedTotal.Inc()
	}

	sit := workItem{port: port, msgID: inID, src: src, wait: wait, enqueuedNs: enqueuedNs}
	if tracing {
		m.trace(sit, session, res.emissions, inChain, bytesIn, procDur)
	}
	var sp *spanEmit
	if spans {
		// Interior stages get a zero-length queue span (enqueuedNs == 0 and
		// wait == 0 collapse it onto the process start) named after the head
		// source — the per-stage process span is the signal; the eliminated
		// queue time is exactly the fusion win.
		sp = m.span(sit, sctx, session, res.emissions, bytesIn, procStartNs, procDur)
	}

	peerID := ""
	if p, ok := Base(m.proc).(Peered); ok && !res.bypassed {
		peerID = p.PeerID()
	}

	// Interior emissions stay in-stack rather than queued, but settle the
	// same way: each stage's input became its emissions.
	m.settle(res.emissions)
	last := k == len(seg.members)-1
	kept := false
	for i := range res.emissions {
		em := res.emissions[i]
		if em.Msg == nil {
			continue
		}
		if em.Msg.ID == inID {
			kept = true
		}
		if last {
			// Segment exit: the one pool Put+Forward, deferred post via the
			// sink, peer chain and supersede handling — all inside emitTo,
			// identical to the unfused tail hop.
			if m.emitTo(em, peerID, sp, &seg.sink) {
				// By-value pool: a deep copy travels on; the original entry
				// is superseded and its body recycled, as finish does.
				if em.Msg.ID == seg.headID {
					seg.headLive = false
				}
				if c := m.pool.Take(em.Msg.ID); c != nil {
					c.Recycle()
				}
			} else if em.Msg.ID == seg.headID {
				// Forwarded in place: ownership of the head entry moved
				// downstream with the post.
				seg.headLive = false
			}
		} else {
			if peerID != "" {
				em.Msg.PushPeer(peerID)
			}
			seg.runStage(k+1, em.Msg, 0, 0, src)
		}
	}
	if !kept {
		// Identity change or terminal stage: the input id leaves the segment
		// unre-emitted. (m.span already observed the terminal SLO latency
		// when there were no emissions at all.)
		seg.retire(inID)
	}
}

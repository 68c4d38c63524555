package streamlet

// Batched handoff mode: a streamlet whose declaration carries `batch = N`
// (or that SetBatch configured) moves messages through the coordination
// plane in batches instead of one at a time, in both directions:
//
//   - the pump drains up to N items from its input queue in ONE FetchN
//     (one queue lock, one producer broadcast) and — in serial mode —
//     hands the whole []workItem slice to the worker in ONE channel
//     operation;
//   - the worker processes the batch in fetch order and defers every
//     emission's queue post into an emitSink, which the batch flush posts
//     downstream with ONE PostN per run of same-queue emissions (one lock,
//     one consumer broadcast, one batched flight entry).
//
// Everything else is unchanged: produce/finish run per message, so
// supervision, tracing, and spans compose exactly as in the single-item
// path; FIFO order is preserved end to end (drain and flush both keep
// fetch order); and the conservation accounting holds —
// inflight covers the batch from fetch to flush, and the source queue is
// acked (AckN) only after the flush lands, so Quiesced, CanTerminate, and
// the Figure 7-4 drains see batched items exactly as they see single ones.
//
// In parallel mode (workers > 1) only the drain side batches: fetched
// items still fan out one at a time through the work channel and the
// admission-token gate, and the resequencer emits them immediately in
// sequence order. Batching the emit side there would park completed work
// behind the batch boundary and interact with the token gate's bounded
// head-of-line guarantee for no measured benefit.

import (
	"fmt"
	"sync"

	"mobigate/internal/obs"
	"mobigate/internal/queue"
)

// workBatch is one batched pump→worker handoff. All items come from the
// same source queue (one pump per port), which is what lets the worker
// settle the batch with a single AckN.
type workBatch struct {
	items []workItem
}

// batchPool recycles handoff slices: a pump fills a batch, the worker
// drains it and puts it back, so steady state allocates nothing.
var batchPool sync.Pool

func acquireBatch() *workBatch {
	if wb, _ := batchPool.Get().(*workBatch); wb != nil {
		return wb
	}
	return &workBatch{}
}

func releaseBatch(wb *workBatch) {
	for i := range wb.items {
		wb.items[i] = workItem{} // release msgID strings
	}
	wb.items = wb.items[:0]
	batchPool.Put(wb)
}

// SetBatch fixes the handoff batch size before Start. n < 1 is treated as
// 1 (the single-item pump). Declarations with a batch attribute do not
// need this call; New already applies them.
func (s *Streamlet) SetBatch(n int) error {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return fmt.Errorf("streamlet %s: batch must be set before Start (state %s)", s.id, s.state)
	}
	s.batch = n
	return nil
}

// Batch returns the configured handoff batch size (1 = single-item).
func (s *Streamlet) Batch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batch
}

// batchPump is the fetch loop for one input port in batch mode: it drains
// up to s.batch items per FetchNGated and hands them downstream — as one
// workBatch in serial mode, or item by item through the admission gate in
// parallel mode. The pause/drain semantics mirror the single-item pump:
// the gate retracts an in-progress fetch without consuming anything, and
// once items are fetched they are delivered to the worker even when the
// pump is being detached (re-queueing would reorder); only streamlet
// termination (done) abandons them, with the same ack accounting End
// documents.
func (s *Streamlet) batchPump(port string, q *queue.Queue, stop chan struct{}, par bool) {
	defer s.wg.Done()
	buf := make([]queue.Item, s.batch) // pump-owned; one allocation per pump
	for {
		gate, live := s.fetchableGate(stop)
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
		s.inflight.Add(int64(n))
		if par {
			// Parallel mode: the drain was batched; delivery stays per item
			// so the token gate keeps bounding head-of-line blocking.
			for i := 0; i < n; i++ {
				it := buf[i]
				item := workItem{port: port, msgID: it.MsgID, src: q, wait: it.Wait, enqueuedNs: it.EnqueuedNs()}
				item.seq = s.seq.Add(1) - 1
				select {
				case s.tokens <- struct{}{}:
				case <-s.done:
					s.abandonTail(q, n-i)
					return
				}
				select {
				case s.work <- item:
				case <-s.done:
					s.abandonTail(q, n-i)
					return
				}
			}
			if stopped(stop) {
				return
			}
			continue
		}
		wb := acquireBatch()
		for i := 0; i < n; i++ {
			it := buf[i]
			wb.items = append(wb.items, workItem{port: port, msgID: it.MsgID, src: q, wait: it.Wait, enqueuedNs: it.EnqueuedNs()})
		}
		select {
		case s.workB <- wb:
		case <-s.done:
			s.abandonTail(q, n)
			releaseBatch(wb)
			return
		}
		if stopped(stop) {
			return
		}
	}
}

// abandonTail accounts for n fetched items abandoned at shutdown, with the
// semantics End documents: handled as far as the queue is concerned, and
// consumed as far as the stream is.
func (s *Streamlet) abandonTail(q *queue.Queue, n int) {
	s.inflight.Add(int64(-n))
	q.AckN(n)
	s.consume(int64(n))
}

// runBatch processes one batched handoff on the serial worker: produce and
// finish per item in fetch order with the emissions deferred into sink,
// then one flush downstream, then the batch's conservation settlement.
// Returns false when the worker should exit (the streamlet ended and the
// batch was abandoned with End's documented semantics).
func (s *Streamlet) runBatch(wb *workBatch, slot *execSlot, sink *emitSink) bool {
	n := len(wb.items)
	if n == 0 {
		releaseBatch(wb)
		return true
	}
	src := wb.items[0].src
	if s.State() == StateEnded {
		s.abandonTail(src, n)
		releaseBatch(wb)
		return false
	}
	for i := range wb.items {
		c := s.produce(wb.items[i], slot)
		s.finish(&c, sink)
	}
	s.flush(sink)
	s.inflight.Add(int64(-n))
	src.AckN(n)
	releaseBatch(wb)
	return true
}

// sinkEntry is one deferred queue post: everything emitTo decided except
// the post itself.
type sinkEntry struct {
	q      *queue.Queue
	fid    string // forwarded id to post (fid != origID means a deep copy)
	origID string
	size   int
	sp     *spanEmit // forward-span parent (nil when spans are off)
}

// emitSink buffers one batch's deferred posts. Owned by the serial worker
// and reused across batches; both slices keep their capacity, so steady
// state allocates nothing.
type emitSink struct {
	entries []sinkEntry
	scratch []queue.Entry
}

func (k *emitSink) add(e sinkEntry) { k.entries = append(k.entries, e) }

func (k *emitSink) reset() {
	for i := range k.entries {
		k.entries[i] = sinkEntry{} // release ids and span refs
	}
	k.entries = k.entries[:0]
}

// flush posts the sink's deferred emissions downstream in order, one PostN
// per run of consecutive same-queue entries (a chain hop emits to one
// queue, so the common case is exactly one PostN). Drop disposition per
// failed entry mirrors the single-item emit path; forward spans cover the
// batched flush they rode in.
func (s *Streamlet) flush(sink *emitSink) {
	ents := sink.entries
	for i := 0; i < len(ents); {
		j := i + 1
		for j < len(ents) && ents[j].q == ents[i].q {
			j++
		}
		s.flushRun(ents[i].q, ents[i:j], &sink.scratch)
		i = j
	}
	sink.reset()
}

func (s *Streamlet) flushRun(q *queue.Queue, run []sinkEntry, scratch *[]queue.Entry) {
	es := (*scratch)[:0]
	for i := range run {
		es = append(es, queue.Entry{MsgID: run[i].fid, Size: run[i].size})
	}
	*scratch = es
	var flushStart int64
	spansOn := false
	for i := range run {
		if run[i].sp != nil {
			spansOn = true
			break
		}
	}
	if spansOn {
		flushStart = obs.MonoNow()
	}
	_, failed, err := q.PostN(es, s.done)
	if err != nil && err != queue.ErrDropped {
		s.fail(fmt.Errorf("streamlet %s: post to %s: %w", s.id, q.Name(), err))
	}
	s.consume(int64(len(failed)))
	var flushEnd int64
	if spansOn {
		flushEnd = obs.MonoNow()
	}
	fi := 0
	for idx := range run {
		e := &run[idx]
		if fi < len(failed) && failed[fi] == idx {
			// Not posted: dropped on timeout, or cut off by close/shutdown.
			// Same disposition as the single-item path — the deep copy never
			// left the pool, so its body is reclaimed; an in-place forward's
			// entry is removed. (The original, when distinct, was already
			// superseded in finish, exactly as emit documents for a failed
			// post.)
			fi++
			s.dropped.Add(1)
			mDroppedTotal.Inc()
			if e.fid != e.origID {
				if c := s.pool.Take(e.fid); c != nil {
					c.Recycle()
				}
			} else {
				s.pool.Remove(e.fid)
			}
			continue
		}
		if e.sp != nil {
			// One forward span per posted emission; all spans of a run share
			// the flush window, which is the true wall-clock cost the post
			// amortized across the batch.
			col := obs.Spans()
			col.Record(obs.Span{
				TraceID: e.sp.traceID, SpanID: col.NextID(), ParentID: e.sp.procSpanID,
				Kind: obs.SpanForward, Site: col.Site(), Name: q.Name(),
				StartNs: flushStart, DurNs: flushEnd - flushStart, Bytes: e.size,
			})
		}
	}
}

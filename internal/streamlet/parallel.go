package streamlet

// Parallel execution mode: order-preserving worker fan-out. A streamlet
// whose declaration carries `workers = N` (or that SetWorkers configured)
// runs N worker goroutines instead of one. Pumps stamp every fetched item
// with a sequence number; the workers race through the parallel-safe stage
// (produce: pool fetch, type check, the supervised Process call) and hand
// their completions to a single resequencer goroutine, which buffers
// out-of-order completions and runs the serial stage (finish: counters,
// trace/span bookkeeping, downstream emission) strictly in fetch order.
// Downstream hops therefore observe exactly the per-port FIFO the serial
// worker provides, while up to N Process calls execute concurrently.
//
// Fault supervision composes unchanged: each worker owns a private
// execSlot, so a stalled Process call (ProcessTimeout) abandons only that
// worker's executor while the other N-1 keep executing, and retry backoff
// delays only the faulted message's worker. Suspend/drain semantics hold
// because the inflight count is decremented (and the source queue acked)
// only after the resequencer emits — so Quiesced/CanTerminate see items
// parked in the resequencer exactly as they see items in the pump handoff.
//
// Head-of-line blocking is bounded by construction: the admission gate (a
// token channel of capacity workers that pumps acquire per fetched item and
// the resequencer releases per handled item) caps fetched-but-unreleased
// items at workers, so at most workers-1 completions can be parked waiting
// for an earlier sequence number — the missing one holds the last token.

import (
	"fmt"

	"mobigate/internal/obs"
)

var (
	mWorkersBusy = obs.DefaultIntGauge(obs.MStreamletWorkersBusy)
	mReseqDepth  = obs.DefaultIntGauge(obs.MStreamletReseqDepth)
)

// SetWorkers fixes the execution-plane fan-out width before Start. n < 1
// is treated as 1 (the serial worker). Declarations with a workers
// attribute do not need this call; New already applies them.
func (s *Streamlet) SetWorkers(n int) error {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return fmt.Errorf("streamlet %s: workers must be set before Start (state %s)", s.id, s.state)
	}
	s.workers = n
	return nil
}

// Workers returns the configured fan-out width (1 = serial).
func (s *Streamlet) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// ResequencerPeak returns the high-water mark of completions that sat in
// the resequencer waiting for an earlier sequence number — the observable
// cost of head-of-line blocking (bounded by workers-1).
func (s *Streamlet) ResequencerPeak() int64 { return s.reseqPeak.Load() }

// parallelWorker is one of N concurrent processMsg loops. It runs only the
// parallel-safe produce stage and forwards the completion; ordering is the
// resequencer's job.
func (s *Streamlet) parallelWorker() {
	defer s.wg.Done()
	slot := &execSlot{}
	defer slot.close()
	for {
		select {
		case <-s.done:
			return
		case it := <-s.work:
			if s.State() == StateEnded {
				s.abandonTail(it.src, 1) // abandoned on shutdown
				return
			}
			mWorkersBusy.Add(1)
			c := s.produce(it, slot)
			mWorkersBusy.Add(-1)
			select {
			case s.comps <- &c:
			case <-s.done:
				// Shutdown raced the handoff; the item is abandoned with
				// End's documented semantics.
				s.abandonTail(it.src, 1)
				return
			}
		}
	}
}

// resequencer restores fetch order: completions arrive in any order and
// are released (finish + inflight/ack accounting) strictly by sequence
// number. Every dispatched item produces a completion while the streamlet
// runs — faulted, dropped, and type-failed messages complete with nothing
// to emit — so a gap can only mean shutdown, which exits via done.
func (s *Streamlet) resequencer() {
	defer s.wg.Done()
	pending := make(map[uint64]*completion)
	var next uint64
	defer func() {
		if len(pending) > 0 {
			mReseqDepth.Add(-int64(len(pending)))
		}
	}()
	for {
		select {
		case <-s.done:
			return
		case c := <-s.comps:
			pending[c.it.seq] = c
			mReseqDepth.Add(1)
			for {
				nc, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				mReseqDepth.Add(-1)
				next++
				s.finish(nc, nil)
				s.inflight.Add(-1)
				nc.it.src.Ack()
				<-s.tokens // readmit one fetch
			}
			// The high-water mark counts completions genuinely parked
			// behind a missing earlier one (measured after the release
			// sweep); the admission gate bounds it at workers-1.
			if d := int64(len(pending)); d > s.reseqPeak.Load() {
				s.reseqPeak.Store(d)
			}
		}
	}
}

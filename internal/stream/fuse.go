package stream

// The fusion pass: discovery and lifecycle of fused hops (see
// internal/streamlet/fuse.go for the execution side). After Start and after
// every reconfiguration, the stream scans its routing table for maximal
// runs of fusable edges — an edge fuses when its channel is a private
// asynchronous 1:1 link between two serial STATELESS native streamlets that
// have not opted out with `fuse = off` — and collapses each run into one
// fused hop under the Figure 7-4 protocol: suspend the segment head, wait
// for every member and intermediate channel to drain, swap the head's pump,
// reactivate. Dissolving is the mirror image, and every reconfiguration
// primitive brackets itself with it: de-fuse the segments the operation
// touches, apply the change through the unchanged drain protocol, then
// re-run the pass. The adaptation autopilot and the self-healing supervisor
// therefore work on fused streams unmodified — they call the same public
// primitives, which now de-fuse and re-fuse around them.
//
// Fusion is an optimization pass, not a semantic one: a drain timeout while
// fusing just skips that segment (the stream keeps running unfused), while
// a drain timeout while DE-fusing aborts the surrounding reconfiguration
// with ErrDrainTimeout — the topology must not change under a live fused
// segment.

import (
	"fmt"
	"strings"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
	"mobigate/internal/streamlet"
)

// mFusedSegments gauges how many fused hops are live across the gateway.
var mFusedSegments = obs.DefaultIntGauge(obs.MFusedSegments)

// mFusionDefuses counts dissolutions (reconfiguration, heal, workers
// change, opt-out, stream end).
var mFusionDefuses = obs.DefaultCounter(obs.MFusionDefuseTotal)

// fusedSeg is the stream-side record of one live fused hop. Members are
// indexed by pointer, not id, so instance renames (SetWorkersLive's clone
// takeover) cannot orphan a segment.
type fusedSeg struct {
	seg     *streamlet.FusedSegment
	members map[*streamlet.Streamlet]bool
	ids     []string
}

// fuseCandidate is one maximal fusable run found by discovery.
type fuseCandidate struct {
	members  []*streamlet.Streamlet
	ids      []string
	ports    []string // input port of each member
	interior []*queue.Queue
}

// SetFusion turns the fusion pass on or off for this stream (on is the
// default). Turning it off dissolves every live fused segment; turning it
// back on re-runs the pass immediately. Returns ErrDrainTimeout (wrapped)
// if a dissolve drain did not finish; the remaining segments stay fused.
func (st *Stream) SetFusion(on bool) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	st.mu.Lock()
	st.fusionOff = !on
	st.mu.Unlock()
	if !on {
		return st.defuseAll("disabled")
	}
	st.fusePass()
	return nil
}

// FusedSegments returns the member-id chains of the live fused segments.
func (st *Stream) FusedSegments() [][]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([][]string, 0, len(st.fused))
	for _, fs := range st.fused {
		out = append(out, append([]string(nil), fs.ids...))
	}
	return out
}

// Reconfiguration wrappers: every public topology primitive de-fuses the
// segments it touches, applies the operation (the unexported body, which is
// the unchanged Figure 7-4 protocol), then re-runs the fusion pass — even
// after a failed operation, so fusion is restored either way. st.fuseMu
// serializes the whole bracket; nested primitives (SetWorkersLive's
// replace, the supervisor's heal) call the unexported bodies directly.

// Insert splices newInst between producer p and consumer c per the
// Figure 7-4 protocol: suspend p, detach p from the shared channel m,
// attach newInst's output to m, create a fresh channel n from p to
// newInst's input, and reactivate p. The new instance must already have
// been added (AddStreamlet / NewStreamlet) and its ports named. A fused
// segment covering the splice point is dissolved first and the pass re-run
// after, so inserting into a fused pipeline de-fuses, applies, re-fuses.
func (st *Stream) Insert(pInst, cInst, newInst, newInPort, newOutPort string) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("insert", pInst, cInst); err != nil {
		return err
	}
	err := st.insert(pInst, cInst, newInst, newInPort, newOutPort)
	st.fusePass()
	return err
}

// Remove takes instance t out of a linear position under the drain
// protocol of the unexported body; fused segments touching t or its
// neighbors dissolve first and the pass re-runs after.
func (st *Stream) Remove(t string, drainTimeout time.Duration) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("remove", t); err != nil {
		return err
	}
	err := st.remove(t, drainTimeout)
	st.fusePass()
	return err
}

// Replace swaps instance old for instance alt (see the unexported body);
// fused segments touching either dissolve first and the pass re-runs after.
func (st *Stream) Replace(old, alt string) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("replace", old, alt); err != nil {
		return err
	}
	err := st.replace(old, alt)
	st.fusePass()
	return err
}

// SetWorkersLive retunes a running native streamlet's parallel fan-out
// width (see the unexported body). A fused segment containing the instance
// dissolves first — a fused hop is serial, so widening it de-fuses it — and
// the pass re-runs after (workers = 1 may re-fuse it).
func (st *Stream) SetWorkersLive(inst string, n int, drainTimeout time.Duration) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("workers", inst); err != nil {
		return err
	}
	err := st.setWorkersLive(inst, n, drainTimeout)
	st.fusePass()
	return err
}

// Connect wires from → to through channel q (nil creates the default
// asynchronous BK channel of 100 KBytes). This is the connect primitive.
// Fused segments touching either endpoint dissolve first: a new edge on an
// interior member would bypass the fused route.
func (st *Stream) Connect(from, to mcl.PortRef, q *queue.Queue) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("connect", from.Inst, to.Inst); err != nil {
		return err
	}
	st.mu.Lock()
	err := st.connectLocked(from, to, q)
	st.mu.Unlock()
	st.fusePass()
	return err
}

// Disconnect severs the from → to connection, honoring the channel
// category's detach semantics (§4.2.2). Fused segments touching either
// endpoint dissolve first.
func (st *Stream) Disconnect(from, to mcl.PortRef) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("disconnect", from.Inst, to.Inst); err != nil {
		return err
	}
	st.mu.Lock()
	err := st.disconnectLocked(from, to)
	st.mu.Unlock()
	st.fusePass()
	return err
}

// DisconnectAll severs every connection touching an instance, dissolving
// any fused segment the instance or its neighbors are part of first.
func (st *Stream) DisconnectAll(inst string) error {
	st.fuseMu.Lock()
	defer st.fuseMu.Unlock()
	if err := st.defuseTouching("disconnect", inst); err != nil {
		return err
	}
	err := st.disconnectAll(inst)
	st.fusePass()
	return err
}

// fusePass discovers and fuses every currently fusable run. Caller holds
// st.fuseMu (never st.mu).
func (st *Stream) fusePass() {
	st.mu.Lock()
	cands := st.candidatesLocked()
	st.mu.Unlock()
	for _, c := range cands {
		st.fuseSegment(c)
	}
}

// candidatesLocked scans the routing table for maximal fusable runs.
// Caller holds st.mu.
func (st *Stream) candidatesLocked() []fuseCandidate {
	if !st.started || st.ended || st.fusionOff || len(st.conns) == 0 {
		return nil
	}
	inSeg := make(map[*streamlet.Streamlet]bool)
	for _, fs := range st.fused {
		for m := range fs.members {
			inSeg[m] = true
		}
	}
	native := func(id string) *streamlet.Streamlet {
		if n, ok := st.nodes[id].(nativeNode); ok {
			return n.s
		}
		return nil
	}
	// fusableMember: a native STATELESS serial streamlet that has not opted
	// out and is not already in a segment. Instances with nil declarations
	// (programmatic compositions that never stated their kind) never fuse —
	// fusion is earned by declaring STATELESS, not assumed.
	fusableMember := func(s *streamlet.Streamlet) bool {
		if s == nil || inSeg[s] {
			return false
		}
		d := s.Decl()
		return d != nil && d.Kind == mcl.Stateless && d.Fuse != mcl.FuseOff && s.Workers() <= 1
	}
	// Degree maps over the whole routing table: a fusable edge must be its
	// producer's only output and its consumer's only input.
	outdeg := make(map[string]int)
	indeg := make(map[string]int)
	quse := make(map[*queue.Queue]int)
	for i := range st.conns {
		outdeg[st.conns[i].from.Inst]++
		indeg[st.conns[i].to.Inst]++
		quse[st.conns[i].q]++
	}
	type edge struct {
		to   string
		port string
		q    *queue.Queue
	}
	next := make(map[string]edge)
	hasPrev := make(map[string]bool)
	for i := range st.conns {
		c := st.conns[i]
		f, t := native(c.from.Inst), native(c.to.Inst)
		if f == nil || t == nil || f == t {
			continue
		}
		if !fusableMember(f) || !fusableMember(t) {
			continue
		}
		// The channel must be a private async 1:1 link: one routing row, one
		// producer, one consumer, nothing parked on a pending break-keep
		// detach. A sync channel is a rendezvous the producer can observe;
		// an externally shared one has traffic the fused route would miss.
		if c.q.Mode() != mcl.Async || quse[c.q] != 1 {
			continue
		}
		if p, cn := c.q.Counts(); p != 1 || cn != 1 {
			continue
		}
		if _, pending := st.pendingDetach[c.q]; pending {
			continue
		}
		if outdeg[c.from.Inst] != 1 || len(f.Outs()) != 1 {
			continue
		}
		if indeg[c.to.Inst] != 1 || len(t.Ins()) != 1 {
			continue
		}
		next[c.from.Inst] = edge{to: c.to.Inst, port: c.to.Port, q: c.q}
		hasPrev[c.to.Inst] = true
	}
	var out []fuseCandidate
	for startID := range next {
		if hasPrev[startID] {
			continue // interior of a longer run; the walk from its head covers it
		}
		cand := fuseCandidate{
			members: []*streamlet.Streamlet{native(startID)},
			ids:     []string{startID},
			ports:   []string{""},
		}
		for cur := startID; ; {
			e, ok := next[cur]
			if !ok {
				break
			}
			cand.members = append(cand.members, native(e.to))
			cand.ids = append(cand.ids, e.to)
			cand.ports = append(cand.ports, e.port)
			cand.interior = append(cand.interior, e.q)
			cur = e.to
		}
		// The head's pump owns exactly one input port; a multi-input (or
		// source) head keeps its own hop and the run starts one edge later.
		for len(cand.members) >= 2 {
			hins := cand.members[0].Ins()
			if len(hins) == 1 {
				for port := range hins {
					cand.ports[0] = port
				}
				break
			}
			cand.members = cand.members[1:]
			cand.ids = cand.ids[1:]
			cand.ports = cand.ports[1:]
			cand.interior = cand.interior[1:]
		}
		if len(cand.members) >= 2 && cand.ports[0] != "" {
			out = append(out, cand)
		}
	}
	return out
}

// fuseSegment collapses one candidate run under the Figure 7-4 protocol:
// suspend the head, drain every member and intermediate channel, swap the
// head's pump for the fused pump, reactivate. A drain timeout skips the
// segment (fusion is opportunistic); the stream keeps running unfused.
// Caller holds st.fuseMu.
func (st *Stream) fuseSegment(c fuseCandidate) {
	head := c.members[0]
	head.Pause()
	drained := waitUntil(time.Now().Add(drainWait), func() bool {
		for _, m := range c.members {
			if !m.Quiesced() {
				return false
			}
		}
		for _, q := range c.interior {
			if !q.Empty() {
				return false
			}
		}
		return true
	})
	if !drained {
		head.Activate()
		mDrainTimeouts.Inc()
		obs.FlightRecord(obs.FlightDrain, st.name, "fuse "+c.ids[0]+" timeout", int64(drainWait))
		return
	}
	seg, err := streamlet.NewFusedSegment(c.members, c.ports)
	if err == nil {
		err = head.InstallPump(seg)
	}
	if err != nil {
		head.Activate()
		st.fail(fmt.Errorf("stream %s: fuse %s: %w", st.name, strings.Join(c.ids, ">"), err))
		return
	}
	head.Activate()
	fs := &fusedSeg{seg: seg, members: make(map[*streamlet.Streamlet]bool, len(c.members)), ids: c.ids}
	for _, m := range c.members {
		fs.members[m] = true
	}
	st.mu.Lock()
	st.fused = append(st.fused, fs)
	st.mu.Unlock()
	mFusedSegments.Add(1)
	if obs.SpansEnabled() {
		obs.FlightRecord(obs.FlightFuse, st.name, strings.Join(c.ids, ">"), int64(len(c.ids)))
	}
}

// defuseTouching dissolves every fused segment containing any of the named
// instances or their direct graph neighbors. The neighbor expansion is what
// makes the reconfiguration wrappers sound: the primitives pause, drain and
// rebind adjacent instances, and a fused member's own quiesce signal is
// only meaningful at its segment head. Caller holds st.fuseMu.
func (st *Stream) defuseTouching(reason string, ids ...string) error {
	st.mu.Lock()
	if len(st.fused) == 0 {
		st.mu.Unlock()
		return nil
	}
	target := make(map[string]bool, len(ids))
	for _, id := range ids {
		target[id] = true
	}
	for _, c := range st.conns {
		for _, id := range ids {
			if c.from.Inst == id {
				target[c.to.Inst] = true
			}
			if c.to.Inst == id {
				target[c.from.Inst] = true
			}
		}
	}
	targetPtr := make(map[*streamlet.Streamlet]bool, len(target))
	for id := range target {
		if n, ok := st.nodes[id].(nativeNode); ok {
			targetPtr[n.s] = true
		}
	}
	var hit []*fusedSeg
	for _, fs := range st.fused {
		for m := range fs.members {
			if targetPtr[m] {
				hit = append(hit, fs)
				break
			}
		}
	}
	st.mu.Unlock()
	for _, fs := range hit {
		if err := st.defuseSeg(fs, reason); err != nil {
			return err
		}
	}
	return nil
}

// defuseAll dissolves every fused segment. Caller holds st.fuseMu.
func (st *Stream) defuseAll(reason string) error {
	st.mu.Lock()
	hit := append([]*fusedSeg(nil), st.fused...)
	st.mu.Unlock()
	for _, fs := range hit {
		if err := st.defuseSeg(fs, reason); err != nil {
			return err
		}
	}
	return nil
}

// defuseSeg dissolves one fused segment: suspend the head, wait for it to
// quiesce (its inflight covers the fused batch end to end, so head
// quiescence is segment quiescence), restore the normal pump, reactivate.
// The segment stays registered until the drain succeeds — on timeout the
// fused hop keeps running and the caller's reconfiguration aborts.
func (st *Stream) defuseSeg(fs *fusedSeg, reason string) error {
	head := fs.seg.Head()
	head.Pause()
	if !waitUntil(time.Now().Add(drainWait), head.Quiesced) {
		head.Activate()
		mDrainTimeouts.Inc()
		obs.FlightRecord(obs.FlightDrain, st.name, "defuse "+fs.ids[0]+" timeout", int64(drainWait))
		return fmt.Errorf("stream %s: defuse %s: %w (after %v)", st.name, strings.Join(fs.ids, ">"), ErrDrainTimeout, drainWait)
	}
	head.RemovePump(fs.seg)
	head.Activate()
	st.mu.Lock()
	for i := range st.fused {
		if st.fused[i] == fs {
			st.fused = append(st.fused[:i], st.fused[i+1:]...)
			break
		}
	}
	st.mu.Unlock()
	mFusedSegments.Add(-1)
	mFusionDefuses.Inc()
	if obs.SpansEnabled() {
		obs.FlightRecord(obs.FlightDefuse, st.name, reason+" "+strings.Join(fs.ids, ">"), int64(len(fs.ids)))
	}
	return nil
}

// dropFusedOnEnd releases the fusion bookkeeping when the stream ends: no
// drain, no pump surgery — End closes every pump (fused ones included) and
// every channel itself; only the gauge, the counter and the registry need
// settling.
func (st *Stream) dropFusedOnEnd() {
	st.mu.Lock()
	segs := st.fused
	st.fused = nil
	st.mu.Unlock()
	for _, fs := range segs {
		mFusedSegments.Add(-1)
		mFusionDefuses.Inc()
		if obs.SpansEnabled() {
			obs.FlightRecord(obs.FlightDefuse, st.name, "end "+strings.Join(fs.ids, ">"), int64(len(fs.ids)))
		}
	}
}

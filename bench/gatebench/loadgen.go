package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobigate/internal/client"
	"mobigate/internal/mime"
	"mobigate/internal/obs"
	"mobigate/internal/server"
)

// Load generation: one slot per connection, and per slot exactly one
// generator goroutine (the origin: it feeds the channel server.Source hands
// the front-end) and one reader goroutine (the client: it reads the socket,
// reverse-processes and verifies). Slots never exceed GOMAXPROCS, so on the
// 2-core reference box the harness is two generator/reader pairs.

// Phases of a run. The main goroutine moves every slot from one to the
// next; generators poll the value between messages.
const (
	phaseWarm  int32 = iota // closed loop, fixed message count
	phaseSat                // closed loop until told otherwise
	phasePaced              // open loop at the slot's fixed rate
	phaseStop               // finish the session and exit
)

// tailDeadline bounds how long a finished session waits for its last
// messages to be confirmed before they are written off as failed. (A
// variable so that the tests of that path need not wait five seconds.)
var tailDeadline = 5 * time.Second

// readDeadline makes a wedged session an error instead of a hang.
const readDeadline = 10 * time.Second

// idRing is how far ahead of the oldest undelivered message a delivery may
// be. At most window messages are in flight, but one of them can wait out a
// full queue's 50 ms grace (queue.DefaultDropTimeout) on one branch while
// the other branch keeps delivering; 4096 ids is more than 100 ms of the
// fastest workload on one connection.
const idRing = 4096

// maxFailedSessions retires a slot whose sessions keep failing.
const maxFailedSessions = 5

var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// clientSession is one connection's lifetime. The reader creates it, the
// generator feeds it, and the two meet only through atomics and channels.
type clientSession struct {
	ch   chan *mime.Message
	base int64 // first message id

	delivered atomic.Int64 // reader: messages of this session received and checked
	padsSeen  atomic.Int64 // reader: pads of this session received
	emitted   atomic.Int64 // generator: next id to build
	padsSent  int64        // generator-owned
	wake      chan struct{}
	abort     chan struct{} // closed by the reader when the connection has ended
	genDone   chan struct{} // closed by the generator when it has let go of ch
	closed    atomic.Bool   // generator closed ch itself (a clean end)
}

// hspan is the harness's own trace record of one message (traced runs).
type hspan struct {
	ID        int64  `json:"id"`
	TraceID   uint64 `json:"traceId,omitempty"`
	BuildNs   int64  `json:"buildStartNs"`
	SentNs    int64  `json:"sentNs"`      // offered to the front-end's channel
	ReadNs    int64  `json:"readNs"`      // ReadMessage returned at the client
	ProcessNs int64  `json:"processedNs"` // Client.Process returned
	VerifyNs  int64  `json:"verifiedNs"`
}

const hspanRing = 1024

type slot struct {
	idx    int
	corp   *corpus
	stream string
	addr   string
	cl     *client.Client
	direct bool // self-cost run: no gateway, skip chain checks

	window     int
	sessionLen int64         // 0: one session for the whole run
	oneShot    bool          // a single session, then the slot is done
	startID    int64         // id of the slot's first message
	eager      bool          // close the channel right after the last message (probe)
	interval   time.Duration // mean paced gap between messages on this slot
	rng        *rand.Rand    // the paced schedule's randomness; generator-owned

	mode      atomic.Int32
	warmQuota atomic.Int64
	kick      chan struct{} // wakes a generator parked on an exhausted quota
	recording atomic.Bool
	traced    bool

	sessions chan *clientSession // reader → generator
	current  atomic.Pointer[clientSession]

	// Totals. Message counts exclude pads.
	attempted      atomic.Int64
	verified       atomic.Int64
	verifiedBytes  atomic.Int64 // origin body bytes of verified deliveries
	failedMsgs     atomic.Int64
	sessionsTried  atomic.Int64
	sessionsFailed atomic.Int64
	reorders       atomic.Int64
	pads           atomic.Int64

	due []atomic.Int64 // ns since epoch at which id%len(due) was due; 0 = not paced

	// Reader-owned until the run ends.
	latency      []int64 // due → verified, ns (recording only)
	latencyAt    []int64 // when each latency sample was taken, ns since epoch
	connectFirst []int64 // dial → first verified delivery, ns
	sumGateway   int64   // traced: offered to the channel → ReadMessage returned
	sumProcess   int64
	sumVerify    int64
	nSpans       int64
	firstErr     error

	// Generator-owned until the run ends.
	lateness []int64 // due → handed to the front-end, ns (recording only)
	// The open-loop schedule belongs to the slot, not the session: messages
	// that fall due while a churn slot is reconnecting are late, not skipped.
	paced    bool
	nextDue  time.Time
	pace     *pacer
	sumBuild int64
	nBuild   int64

	// Traced runs: the reader-owned ring of the latest records, and the
	// generator's two stamps per message, which cross to the reader.
	ring      []hspan
	builtAt   []atomic.Int64
	offeredAt []atomic.Int64
}

func newSlot(idx int, sp *spec, corp *corpus, addr string, cl *client.Client, conns int) *slot {
	s := &slot{
		idx: idx, corp: corp, stream: sp.stream, addr: addr, cl: cl,
		window:   sp.window,
		interval: time.Duration(float64(time.Second) * float64(conns) / sp.pacedRate),
		rng:      rand.New(rand.NewSource(corp.seed + int64(idx))),
		kick:     make(chan struct{}, 1),
		sessions: make(chan *clientSession, 1),
		due:      make([]atomic.Int64, idRing),
	}
	if sp.churnLen > 0 && idx == conns-1 {
		s.sessionLen = int64(sp.churnLen)
	}
	return s
}

// source is the server.Source of the gateway under test: the request names
// the slot, and the slot's current session owns the channel.
func source(slots []*slot) server.Source {
	return func(req *mime.Message) <-chan *mime.Message {
		i, err := strconv.Atoi(req.Header(headerSlot))
		if err != nil || i < 0 || i >= len(slots) {
			ch := make(chan *mime.Message)
			close(ch)
			return ch
		}
		return slots[i].current.Load().ch
	}
}

// nextGap draws the next inter-arrival time of the open-loop schedule.
func (s *slot) nextGap() time.Duration {
	return time.Duration(s.rng.ExpFloat64() * float64(s.interval))
}

func (s *slot) setMode(m int32) {
	s.mode.Store(m)
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// run drives the slot until phaseStop: the reader loop here, the generator
// in its own goroutine. It returns when both have finished.
func (s *slot) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer s.pace.close()
	genExit := make(chan struct{})
	go func() {
		defer close(genExit)
		for sess := range s.sessions {
			s.generate(sess)
		}
	}()
	base := s.startID
	for {
		sess := &clientSession{
			ch: make(chan *mime.Message), base: base,
			wake: make(chan struct{}, 1), abort: make(chan struct{}), genDone: make(chan struct{}),
		}
		sess.emitted.Store(base)
		s.current.Store(sess)
		s.sessions <- sess
		ok, err := s.read(sess)
		close(sess.abort)
		<-sess.genDone
		s.sessionsTried.Add(1)
		end := sess.emitted.Load()
		lost := (end - base) - ok
		if lost > 0 {
			s.failedMsgs.Add(lost)
		}
		if lost > 0 || err != nil || !sess.closed.Load() {
			s.sessionsFailed.Add(1)
			if err == nil {
				err = fmt.Errorf("slot %d: session ended with %d of %d messages undelivered", s.idx, lost, end-base)
			}
			if s.firstErr == nil {
				s.firstErr = err
			}
		}
		base = end
		// A gateway that keeps refusing sessions must not spin the slot.
		if s.oneShot || s.mode.Load() == phaseStop || (!s.eager && s.sessionsFailed.Load() >= maxFailedSessions) {
			break
		}
	}
	close(s.sessions)
	<-genExit
}

// generate is the origin of one session.
func (s *slot) generate(sess *clientSession) {
	defer close(sess.genDone)
	// The generator is the channel's only sender, so it closes it on every
	// path: an abandoned feed goroutine in the front-end would otherwise
	// range over it for ever.
	defer close(sess.ch)
	id := sess.base
	for {
		mode := s.mode.Load()
		if mode == phaseStop || (s.sessionLen > 0 && id-sess.base >= s.sessionLen) {
			break
		}
		if mode == phaseWarm && s.warmQuota.Add(-1) < 0 {
			s.warmQuota.Add(1)
			// The warm-up is a fixed count: push its tail out, then park.
			if !s.flush(sess, id) {
				return
			}
			select {
			case <-s.kick:
				continue
			case <-sess.abort:
				return
			}
		}
		var dueNs int64
		if mode == phasePaced {
			now := time.Now()
			if !s.paced {
				s.paced, s.nextDue = true, now
			}
			if d := s.nextDue.Sub(now); d > 0 {
				s.pace.sleep(d)
			}
			dueNs = int64(s.nextDue.Sub(epoch))
			// Poisson arrivals: a strictly periodic schedule phase-locks
			// with the front-end's periodic poll and the latency it sees
			// then depends on the beat, not on the gateway.
			s.nextDue = s.nextDue.Add(s.nextGap())
		} else {
			s.paced = false
		}
		// Closed loop in every phase: at most window messages are in
		// flight, so no queue on the path can fill. The bound is a count,
		// not a prefix: the two branches reorder, and the oldest message
		// can be the one parked in the front-end's write buffer, which only
		// later traffic pushes out. In the paced phase the wait, if any, is
		// charged to the message: it is timed from due.
		for id-sess.base-sess.delivered.Load() >= int64(s.window) {
			select {
			case <-sess.wake:
			case <-sess.abort:
				return
			}
		}
		var t0 int64
		if s.traced {
			t0 = sinceEpoch()
		}
		m := s.corp.build(id)
		s.due[id%int64(len(s.due))].Store(dueNs)
		if s.traced {
			// Stored before the message can reach the reader, which
			// completes the record.
			t1 := sinceEpoch()
			s.builtAt[id%hspanRing].Store(t0)
			s.offeredAt[id%hspanRing].Store(t1)
			s.sumBuild += t1 - t0
			s.nBuild++
		}
		select {
		case sess.ch <- m:
		case <-sess.abort:
			return
		}
		if dueNs != 0 && s.recording.Load() {
			s.lateness = append(s.lateness, sinceEpoch()-dueNs)
		}
		id++
		sess.emitted.Store(id)
		s.attempted.Add(1)
	}

	if s.eager || s.flush(sess, id) {
		sess.closed.Store(true)
	}
}

// flush holds the session open until the reader has confirmed every id
// below next, and reports false if the connection ended first. The
// front-end ends a session as soon as the feed is closed and its pipeline
// looks drained, which races with messages still between nodes; and it
// flushes its 4 KiB write buffer only when full, so pads push the tail out.
// Pads are harness plumbing, not operations.
func (s *slot) flush(sess *clientSession, next int64) bool {
	deadline := time.Now().Add(tailDeadline)
	all := next - sess.base
	for sess.delivered.Load() < all && time.Now().Before(deadline) {
		// A pad's own tail stays in the write buffer until the next one,
		// so a few must be allowed out at once; but not without bound, or
		// a stalled connection would fill the inlet queue with them.
		if sess.padsSent-sess.padsSeen.Load() < maxPadsInFlight {
			select {
			case sess.ch <- s.corp.buildPad():
				sess.padsSent++
				s.pads.Add(1)
			case <-sess.abort:
				return false
			}
		}
		t := time.NewTimer(2 * time.Millisecond)
	wait:
		for sess.delivered.Load() < all {
			select {
			case <-sess.wake:
			case <-t.C:
				break wait
			case <-sess.abort:
				t.Stop()
				return false
			}
		}
		t.Stop()
	}
	return true
}

// read is the client of one session: dial, request, then read, reverse and
// verify until the gateway closes the connection. It returns how many of
// the session's messages were delivered and verified.
func (s *slot) read(sess *clientSession) (verified int64, err error) {
	t0 := time.Now()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	req := mime.NewMessage(typeText, nil)
	req.SetHeader(server.HeaderRequestStream, s.stream)
	req.SetHeader(headerSlot, strconv.Itoa(s.idx))
	if _, err := req.WriteTo(conn); err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	w := newWindow(len(s.due), sess.base)
	var seq, maxID int64 = 0, -1
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	for n := 0; ; n++ {
		if n%256 == 0 {
			_ = conn.SetReadDeadline(time.Now().Add(readDeadline)) // a TCP conn accepts deadlines
		}
		m, rerr := mime.ReadMessage(br)
		if rerr != nil {
			if !errors.Is(rerr, io.EOF) {
				fail(fmt.Errorf("slot %d: reading: %w", s.idx, rerr))
			}
			return verified, err
		}
		var tRead, tProc int64
		if s.traced {
			tRead = sinceEpoch()
		}
		// Messages the front-end sweeps out after the feed closed carry no
		// X-Seq; with the tail held open those are pads only.
		if h := m.Header(server.HeaderSeq); h != "" {
			if got, perr := strconv.ParseInt(h, 10, 64); perr != nil || got != seq {
				fail(fmt.Errorf("slot %d: X-Seq %q, want %d", s.idx, h, seq))
			}
		} else if m.Header(headerBenchPad) == "" {
			fail(fmt.Errorf("slot %d: delivery without X-Seq", s.idx))
		}
		seq++
		spanCtx := m.Header(mime.HeaderSpanContext)
		out, perr := s.cl.Process(m)
		if perr != nil {
			fail(perr)
			continue
		}
		if out.Header(headerBenchPad) != "" {
			out.Recycle()
			sess.padsSeen.Add(1)
			continue
		}
		if s.traced {
			tProc = sinceEpoch()
		}
		id, perr := strconv.ParseInt(out.Header(headerBenchID), 10, 64)
		if perr != nil {
			fail(fmt.Errorf("slot %d: delivery without %s", s.idx, headerBenchID))
			continue
		}
		if !w.mark(id) {
			fail(fmt.Errorf("slot %d: message %d delivered twice or out of range (all below %d seen, ring %d)", s.idx, id, w.contig, len(w.seen)))
			continue
		}
		if verr := s.corp.verify(out, id, s.direct); verr != nil {
			fail(verr) // stays unverified: counted as failed when the session ends
		} else {
			verified++
			s.verified.Add(1)
			s.verifiedBytes.Add(int64(len(s.corp.item(id).body)))
		}
		now := sinceEpoch()
		if verified == 1 {
			s.connectFirst = append(s.connectFirst, now-int64(t0.Sub(epoch)))
		}
		if id < maxID {
			s.reorders.Add(1)
		} else {
			maxID = id
		}
		if due := s.due[id%int64(len(s.due))].Load(); due != 0 && s.recording.Load() {
			s.latency = append(s.latency, now-due)
			s.latencyAt = append(s.latencyAt, now)
		}
		if s.traced {
			offered := s.offeredAt[id%hspanRing].Load()
			s.ring[id%hspanRing] = hspan{
				ID: id, TraceID: obs.ParseSpanContext(spanCtx).TraceID,
				BuildNs: s.builtAt[id%hspanRing].Load(), SentNs: offered,
				ReadNs: tRead, ProcessNs: tProc, VerifyNs: now,
			}
			s.sumGateway += tRead - offered
			s.sumProcess += tProc - tRead
			s.sumVerify += now - tProc
			s.nSpans++
		}
		out.Recycle()
		sess.delivered.Add(1)
		select {
		case sess.wake <- struct{}{}:
		default:
		}
	}
}

// directServer stands in for the gateway when the harness prices itself:
// same listener, same request, same Source, but origin messages go straight
// to the socket with one WriteToV each.
type directServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startDirect(src server.Source) (*directServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &directServer{ln: ln}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				defer conn.Close()
				req, err := mime.ReadMessage(bufio.NewReader(conn))
				if err != nil {
					return
				}
				var seq int64
				for m := range src(req) {
					m.SetHeader(server.HeaderSeq, strconv.FormatInt(seq, 10))
					seq++
					if _, err := m.WriteToV(conn); err != nil {
						return
					}
				}
			}()
		}
	}()
	return d, nil
}

func (d *directServer) close() {
	_ = d.ln.Close() // only fails when already closed
	d.wg.Wait()
}

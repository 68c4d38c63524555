package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobigate"
	"mobigate/internal/obs"
)

// tick is the period of the main goroutine's housekeeping during a timed
// phase: gauge sampling (10 Hz) and, on control-churn, the reconfiguration
// events. Ten ticks make one throughput slice.
const tick = 100 * time.Millisecond

// ticksPerSlice and pacedSettle are variables only so that the smoke test
// can shorten them; every benchmark run uses these values.
var (
	ticksPerSlice = 10
	// pacedSettle lets the closed-loop backlog drain before open-loop
	// latencies are recorded.
	pacedSettle = 300 * time.Millisecond
)

// setupRounds is how many times a run performs the whole set-up; setup_s is
// the median round. Only the last round's gateway is measured.
const setupRounds = 5

// options of one run.
type options struct {
	sp      *spec
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks the fixed work (tests): one set-up round, 5 cold cycles,
	// a short warm-up and short ladder loops.
	smoke bool
}

// bed is one gateway under test with its connection slots.
type bed struct {
	gw    *mobigate.Gateway
	fe    *mobigate.GatewayFrontend
	slots []*slot
	wg    sync.WaitGroup

	// firstAlias is the deployment alias of slot 0's session, the
	// long-lived one that control-churn reconfigures.
	firstAlias string

	asyncErrs atomic.Int64 // errors the gateway reported through ErrorHandler
	firstErr  atomic.Pointer[string]

	// Main-goroutine state of the control-churn reconfigurations.
	spliced     bool
	spliceNs    []int64
	spliceFails int64
}

// connCount is the number of connection slots: one per processor, so the
// harness never has more generator/reader pairs than the box has cores.
func connCount() int { return runtime.GOMAXPROCS(0) }

// startBed builds a gateway, binds its front-end to a loopback port and
// starts conns slots in the warm phase with an empty quota (they connect and
// wait). tune adjusts each slot before it starts.
func startBed(sp *spec, script string, corp *corpus, conns int, tune func(*slot)) (*bed, error) {
	b := &bed{}
	b.gw = mobigate.NewGateway(mobigate.GatewayOptions{ErrorHandler: func(err error) {
		b.asyncErrs.Add(1)
		msg := err.Error()
		b.firstErr.CompareAndSwap(nil, &msg)
	}})
	if err := b.gw.LoadScript(script); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.script, err)
	}
	b.slots = make([]*slot, conns)
	b.fe = mobigate.NewFrontend(b.gw, source(b.slots))
	addr, err := b.fe.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := mobigate.NewClient(mobigate.ClientOptions{}, nil)
	for i := range b.slots {
		s := newSlot(i, sp, corp, addr.String(), cl, conns)
		if tune != nil {
			tune(s)
		}
		if s.traced {
			s.ring = make([]hspan, hspanRing)
			s.builtAt = make([]atomic.Int64, hspanRing)
			s.offeredAt = make([]atomic.Int64, hspanRing)
		}
		if s.pace, err = newPacer(); err != nil {
			return nil, err
		}
		b.slots[i] = s
	}
	for i, s := range b.slots {
		b.wg.Add(1)
		go s.run(&b.wg)
		if i == 0 {
			// Slot 0 connects alone so that its alias is known.
			if !waitFor(10*time.Second, func() bool { return len(b.gw.Deployed()) == 1 || s.sessionsTried.Load() > 0 }) {
				b.stop()
				return nil, fmt.Errorf("slot 0's session was not deployed")
			}
			if d := b.gw.Deployed(); len(d) == 1 {
				b.firstAlias = d[0]
			}
		}
	}
	return b, nil
}

// splice is one control-churn reconfiguration of slot 0's running stream:
// alternately insert the spare redirector into the text branch and remove
// it again, with the drain-safe Stream.Insert / Stream.Remove (Figure 7-4:
// suspend the producer, drain, rebind, reactivate; both de-fuse the segment
// they touch and re-fuse afterwards). The script's when-blocks are not used
// under traffic: their disconnect + connect idiom rebinds the sink's port
// and strands whatever the replaced channel still held (see the README).
func (b *bed) splice(sp *spec) {
	st := b.gw.Stream(b.firstAlias)
	if st == nil {
		b.spliceFails++
		return
	}
	t0 := time.Now()
	var err error
	if !b.spliced {
		if st.Streamlet(sp.spare) == nil {
			// Remove discards the instance; make a fresh one from its
			// declaration.
			err = st.NewStreamlet(sp.spare, b.gw.Config().Stream(sp.stream).Instance(sp.spare).Decl)
		}
		if err == nil {
			err = st.Insert(sp.spliceAfter, sp.spliceBefore, sp.spare, "pi", "po")
		}
	} else {
		err = st.Remove(sp.spare, time.Second)
	}
	if err != nil {
		b.spliceFails++
		msg := err.Error()
		b.firstErr.CompareAndSwap(nil, &msg)
		return
	}
	b.spliced = !b.spliced
	b.spliceNs = append(b.spliceNs, int64(time.Since(t0)))
}

func (b *bed) setMode(m int32) {
	for _, s := range b.slots {
		s.setMode(m)
	}
}

// stop ends every session cleanly and tears the gateway down.
func (b *bed) stop() {
	b.setMode(phaseStop)
	b.wg.Wait()
	_ = b.fe.Close() // the listener's close error carries nothing to act on
	b.gw.Close()
}

func (b *bed) sum(f func(*slot) int64) int64 {
	var n int64
	for _, s := range b.slots {
		n += f(s)
	}
	return n
}

func (b *bed) verified() int64 { return b.sum(func(s *slot) int64 { return s.verified.Load() }) }
func (b *bed) bytes() int64    { return b.sum(func(s *slot) int64 { return s.verifiedBytes.Load() }) }

// waitFor polls cond every millisecond up to d.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// warm pushes a fixed number of messages through every slot, closed loop.
func (b *bed) warm(perSlot int) error {
	target := b.verified() + int64(perSlot)*int64(len(b.slots))
	for _, s := range b.slots {
		s.warmQuota.Store(int64(perSlot))
		s.setMode(phaseWarm)
	}
	if !waitFor(60*time.Second, func() bool { return b.verified() >= target || b.failed() > 0 }) || b.failed() > 0 {
		return fmt.Errorf("warm-up stalled at %d of %d deliveries: %v\n%s", b.verified(), target, b.err(), b.diagnose())
	}
	return nil
}

// diagnose renders the gateway's own view of a run that went wrong: drop
// counters and every deployed stream's snapshot.
func (b *bed) diagnose() string {
	var sb strings.Builder

	vals := obs.Default().SnapshotValues()
	for _, k := range []string{obs.MQueueDropTotal, obs.MStreamDroppedTotal, obs.MPoolMissTotal, obs.MStreamDrainTimeoutsTotal} {
		fmt.Fprintf(&sb, "  %s = %.0f\n", k, vals[k])
	}
	for _, sl := range b.slots {
		if cur := sl.current.Load(); cur != nil {
			fmt.Fprintf(&sb, "  slot %d: session base %d, emitted %d, delivered %d; totals: %d attempted, %d verified, %d sessions (%d failed): %v\n",
				sl.idx, cur.base, cur.emitted.Load(), cur.delivered.Load(), sl.attempted.Load(), sl.verified.Load(),
				sl.sessionsTried.Load(), sl.sessionsFailed.Load(), sl.firstErr)
		}
	}
	for _, alias := range b.gw.Deployed() {
		if st := b.gw.Stream(alias); st != nil {
			sb.WriteString(st.StatsSnapshot().String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func (b *bed) failed() int64 {
	return b.sum(func(s *slot) int64 { return s.failedMsgs.Load() + s.sessionsFailed.Load() })
}

func (b *bed) err() error {
	if p := b.firstErr.Load(); p != nil {
		return fmt.Errorf("gateway: %s", *p)
	}
	for _, s := range b.slots {
		if s.firstErr != nil {
			return s.firstErr
		}
	}
	return nil
}

// coldCycle is the deploy path end to end, once: new gateway, LoadScript,
// Listen, dial, request, first message delivered, Close.
func coldCycle(sp *spec, script string, corp *corpus) (*slot, error) {
	// The one message is the corpus's first text item whatever the seed: an
	// image first would make the cycle cost depend on that image's size.
	first := int64(0)
	for corp.item(first).image {
		first++
	}
	b, err := startBed(sp, script, corp, 1, func(s *slot) {
		s.sessionLen, s.oneShot, s.startID = 1, true, first
		s.mode.Store(phaseSat)
	})
	if err != nil {
		return nil, err
	}
	b.wg.Wait()
	_ = b.fe.Close()
	b.gw.Close()
	if b.slots[0].verified.Load() != 1 {
		return nil, fmt.Errorf("cold cycle delivered %d messages, want 1: %v", b.slots[0].verified.Load(), b.err())
	}
	return b.slots[0], nil
}

// setupResult is what one set-up round leaves behind.
type setupResult struct {
	bed         *bed
	corp        *corpus
	seconds     float64
	coldCycleUs float64 // mean of the round's cold cycles
	coldSlots   []*slot // the cold cycles' slots, for their connect times
}

// setUp performs one whole set-up round: seeded corpus with its reference
// outputs, the cold cycles, then the gateway to be measured with its
// connections dialled and a fixed-count warm-up pushed through. It is fixed
// work, so its wall time is comparable between runs and commits, and the
// cold cycles amplify deploy-time cost so that work moved into set-up shows.
func setUp(o options, script string) (*setupResult, error) {
	t0 := time.Now()
	corp, err := buildCorpus(o.sp, o.seed)
	if err != nil {
		return nil, err
	}
	cycles, warmup := o.sp.setupCycles, o.sp.warmup
	if o.smoke {
		cycles, warmup = 5, 64
	}
	tc := time.Now()
	coldSlots := make([]*slot, 0, cycles)
	for i := 0; i < cycles; i++ {
		s, err := coldCycle(o.sp, script, corp)
		if err != nil {
			return nil, err
		}
		coldSlots = append(coldSlots, s)
	}
	cold := time.Since(tc)
	b, err := startBed(o.sp, script, corp, connCount(), func(s *slot) { s.traced = o.trace })
	if err != nil {
		return nil, err
	}
	if o.sp.lowBandwidth {
		if err := b.switchLow(); err != nil {
			b.stop()
			return nil, err
		}
	}
	if err := b.warm(warmup); err != nil {
		b.stop()
		return nil, err
	}
	return &setupResult{
		bed: b, corp: corp, coldSlots: coldSlots,
		seconds:     time.Since(t0).Seconds(),
		coldCycleUs: float64(cold.Microseconds()) / float64(cycles),
	}, nil
}

// switchLow waits until every slot's session is deployed, raises
// LOW_BANDWIDTH once and waits until each instance has reconfigured.
func (b *bed) switchLow() error {
	n := len(b.slots)
	if !waitFor(10*time.Second, func() bool { return len(b.gw.Deployed()) == n }) {
		return fmt.Errorf("only %d of %d sessions deployed", len(b.gw.Deployed()), n)
	}
	if err := b.gw.Raise("LOW_BANDWIDTH", ""); err != nil {
		return err
	}
	ok := waitFor(10*time.Second, func() bool {
		for _, alias := range b.gw.Deployed() {
			if st := b.gw.Stream(alias); st == nil || st.Reconfigurations() == 0 {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("LOW_BANDWIDTH was not applied on every session: %v", b.err())
	}
	return nil
}

// cpuTime is the process's user+system CPU time. The kernel scales the two
// so that their sum is the scheduler's exact run time, not a tick count.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is a reading of everything a phase is differenced over.
type mark struct {
	t        time.Time
	cpu      time.Duration
	verified int64
	bytes    int64
}

func (b *bed) mark() mark {
	return mark{t: time.Now(), cpu: cpuTime(), verified: b.verified(), bytes: b.bytes()}
}

// phaseStats are the readings of one timed phase.
type phaseStats struct {
	start, end mark
	slices     []mark // one per second, start excluded
	mem0, mem1 runtime.MemStats
	depth      []float64 // queued messages, gateway-wide, at 10 Hz
	rssMB      []float64 // resident set, at 10 Hz
	goroutines int       // peak seen at 10 Hz
	reg0, reg1 map[string]float64
}

func (p *phaseStats) msgs() int64 { return p.end.verified - p.start.verified }

// perSlice maps f over consecutive slice marks.
func (p *phaseStats) perSlice(f func(a, b mark) float64) []float64 {
	out := make([]float64, 0, len(p.slices))
	prev := p.start
	for _, m := range p.slices {
		if m.verified > prev.verified {
			out = append(out, f(prev, m))
		}
		prev = m
	}
	return out
}

// timed runs one phase for d: it only observes (and, on control-churn,
// reconfigures slot 0's stream); the slots do the work. onTick, if set,
// runs on every 100 ms tick.
func (b *bed) timed(sp *spec, d time.Duration, registry bool, onTick func()) *phaseStats {
	p := &phaseStats{}
	if registry {
		p.reg0 = obs.Default().SnapshotValues()
	}
	depth := obs.DefaultIntGauge(obs.MQueueQueuedMessages)
	runtime.ReadMemStats(&p.mem0)
	p.start = b.mark()
	for i := 1; ; i++ {
		next := p.start.t.Add(time.Duration(i) * tick)
		if next.Sub(p.start.t) > d {
			break
		}
		time.Sleep(time.Until(next))
		p.depth = append(p.depth, float64(depth.Value()))
		p.rssMB = append(p.rssMB, rssMB())
		if onTick != nil {
			onTick()
		}
		if g := runtime.NumGoroutine(); g > p.goroutines {
			p.goroutines = g
		}
		if sp.reconfigEvery > 0 && i%sp.reconfigEvery == 0 {
			b.splice(sp)
		}
		if i%ticksPerSlice == 0 {
			p.slices = append(p.slices, b.mark())
		}
	}
	p.end = b.mark()
	runtime.ReadMemStats(&p.mem1)
	if registry {
		p.reg1 = obs.Default().SnapshotValues()
	}
	return p
}

// paced switches the bed to the open loop and times d of it.
func (b *bed) paced(sp *spec, d time.Duration) *phaseStats {
	want := int(sp.pacedRate*d.Seconds()*1.5)/len(b.slots) + 1024
	for _, s := range b.slots {
		s.latency = make([]int64, 0, want)
		s.latencyAt = make([]int64, 0, want)
		s.lateness = make([]int64, 0, want)
	}
	b.setMode(phasePaced)
	time.Sleep(pacedSettle)
	for _, s := range b.slots {
		s.recording.Store(true)
	}
	p := b.timed(sp, d, false, nil)
	for _, s := range b.slots {
		s.recording.Store(false)
	}
	return p
}

// result is everything a run reports.
type result struct {
	values    map[string]float64
	attempted int64
	failed    int64
	correct   bool
	notes     []string
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// collectCounts folds the slots' totals into the result once they stopped.
// A set-up round's bed is noted only if something failed on it.
func (r *result) collectCounts(b *bed, measured bool) {
	msgs := b.sum(func(s *slot) int64 { return s.attempted.Load() })
	sess := b.sum(func(s *slot) int64 { return s.sessionsTried.Load() })
	fm := b.sum(func(s *slot) int64 { return s.failedMsgs.Load() })
	fs := b.sum(func(s *slot) int64 { return s.sessionsFailed.Load() })
	nsp := int64(len(b.spliceNs)) + b.spliceFails
	r.attempted += msgs + sess + nsp
	r.failed += fm + fs + b.spliceFails + b.asyncErrs.Load()
	if !measured && fm+fs+b.spliceFails+b.asyncErrs.Load() == 0 {
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("operations: %d messages (%d failed), %d sessions (%d failed), %d reconfigurations (%d failed), %d pads, %d gateway errors",
		msgs, fm, sess, fs, nsp, b.spliceFails, b.sum(func(s *slot) int64 { return s.pads.Load() }), b.asyncErrs.Load()))
	if err := b.err(); err != nil {
		r.notes = append(r.notes, "first error: "+err.Error())
	}
}

// satMetrics turns a closed-loop phase into the throughput-side metrics.
// Rates are medians of one-second slices: a neighbour's burst on the shared
// box spoils a slice, not the run.
func satMetrics(r *result, p *phaseStats) {
	r.set("throughput_msgs_per_s", median(p.perSlice(func(a, b mark) float64 {
		return float64(b.verified-a.verified) / b.t.Sub(a.t).Seconds()
	})))
	r.set("goodput_mb_per_s", median(p.perSlice(func(a, b mark) float64 {
		return float64(b.bytes-a.bytes) / 1e6 / b.t.Sub(a.t).Seconds()
	})))
	r.set("cpu_us_per_msg", median(p.perSlice(func(a, b mark) float64 {
		return float64((b.cpu - a.cpu).Microseconds()) / float64(b.verified-a.verified)
	})))
	n := float64(p.msgs())
	r.set("allocs_per_msg", float64(p.mem1.Mallocs-p.mem0.Mallocs)/n)
	r.set("alloc_bytes_per_msg", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/n)
}

// latencies gathers the paced phase's samples (µs) from every slot: all of
// them, and grouped into the one-second slices they were taken in.
func (b *bed) latencies(p *phaseStats) (lat, late []float64, slices [][]float64) {
	start := int64(p.start.t.Sub(epoch))
	slices = make([][]float64, len(p.slices)+1)
	for _, s := range b.slots {
		late = append(late, int64sToFloats(s.lateness, 1e-3)...)
		for i, ns := range s.latency {
			us := float64(ns) * 1e-3
			lat = append(lat, us)
			if k := int((s.latencyAt[i] - start) / int64(time.Duration(ticksPerSlice)*tick)); k >= 0 && k < len(slices) {
				slices[k] = append(slices[k], us)
			}
		}
	}
	return lat, late, slices
}

// slicedPercentile is the median over one-second slices of each slice's
// p-quantile: one stall of the shared box spoils a slice or two, not the
// run's figure. Slices with too few samples to hold the quantile are left
// out.
func slicedPercentile(slices [][]float64, p float64) float64 {
	var per []float64
	for _, s := range slices {
		if len(s) >= 20 {
			per = append(per, percentile(s, p))
		}
	}
	if len(per) == 0 { // a run too short or too slow to fill a slice
		var all []float64
		for _, s := range slices {
			all = append(all, s...)
		}
		return percentile(all, p)
	}
	return median(per)
}

// rssMB reads the process's current resident set.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscanf(string(data), "%f %f", &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSS is the highest one-second median of the resident set over the
// given phases. The kernel's own high-water mark (VmHWM) is a single
// maximum: on a workload that allocates a megabyte a message it records
// how far one garbage-collection cycle happened to overshoot, and moves by
// a third between identical runs.
func peakRSS(phases ...*phaseStats) float64 {
	peak := 0.0
	for _, p := range phases {
		for i := 0; i+ticksPerSlice <= len(p.rssMB); i += ticksPerSlice {
			if m := median(p.rssMB[i : i+ticksPerSlice]); m > peak {
				peak = m
			}
		}
	}
	return peak
}

// vmHWM reads the kernel's resident-set high-water mark, for the notes.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runEndToEnd is the untraced run: set-up rounds, sat, paced, drain.
func runEndToEnd(o options) (*result, error) {
	script, err := loadScript(o.sp.script)
	if err != nil {
		return nil, err
	}
	r := &result{values: map[string]float64{}}
	rounds := setupRounds
	if o.smoke {
		rounds = 1
	}
	var su *setupResult
	var setupTimes, coldUs []float64
	for i := 0; i < rounds; i++ {
		if su != nil {
			su.bed.stop()
			r.collectCounts(su.bed, false)
		}
		if su, err = setUp(o, script); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, su.seconds)
		coldUs = append(coldUs, su.coldCycleUs)
	}
	b := su.bed
	r.set("setup_s", median(setupTimes))
	r.notes = append(r.notes, fmt.Sprintf("set-up rounds: %.3f s each (median of %d), cold cycle %.0f µs", median(setupTimes), rounds, median(coldUs)))

	runtime.GC()
	calib0 := calib()
	satFor := time.Duration(o.seconds * 0.6 * float64(time.Second))
	pacedFor := time.Duration(o.seconds*0.4*float64(time.Second)) - pacedSettle
	b.setMode(phaseSat)
	sat := b.timed(o.sp, satFor, false, nil)
	pc := b.paced(o.sp, pacedFor)
	b.stop()
	r.collectCounts(b, true)

	satMetrics(r, sat)
	lat, late, slices := b.latencies(pc)
	r.set("latency_p50_us", slicedPercentile(slices, 0.50))
	r.set("latency_p90_us", slicedPercentile(slices, 0.90))
	r.set("peak_rss_mb", peakRSS(sat, pc))
	r.notes = append(r.notes,
		fmt.Sprintf("sat: %d deliveries in %.1f s over %d connections, window %d", sat.msgs(), sat.end.t.Sub(sat.start.t).Seconds(), len(b.slots), o.sp.window),
		fmt.Sprintf("paced: %d samples at %.0f msg/s offered, %.0f msg/s delivered, p99 %.0f µs, generator lateness p90 %.0f µs",
			len(lat), o.sp.pacedRate, float64(pc.msgs())/pc.end.t.Sub(pc.start.t).Seconds(), percentile(lat, 0.99), percentile(late, 0.90)))
	tp := sat.perSlice(func(a, b mark) float64 { return float64(b.verified-a.verified) / b.t.Sub(a.t).Seconds() })
	r.notes = append(r.notes, fmt.Sprintf("host calibration (1 KiB SHA-256): %.0f ns before sat, %.0f ns after paced; sat slices %.0f / %.0f / %.0f msg/s (min / median / max)",
		calib0, calib(), percentile(tp, 0), median(tp), percentile(tp, 1)),
		fmt.Sprintf("resident set: %.1f MB highest one-second median, %.1f MB kernel high-water mark (VmHWM)", r.values["peak_rss_mb"], vmHWM()))
	r.correct = r.failed == 0
	return r, nil
}

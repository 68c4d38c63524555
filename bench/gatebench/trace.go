package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mobigate"
	"mobigate/internal/obs"
)

// perLayer lists every per-layer metric a traced run prints. Module names
// are the layers; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"mime.read_ns", "ns"}, {"mime.decode_ns", "ns"}, {"mime.encode_ns", "ns"}, {"mime.writev_ns", "ns"},
	{"mime.clone_ns", "ns"}, {"mime.read_allocs", "count"}, {"mime.writev_allocs", "count"},

	{"queue.post_fetch_ns", "ns"}, {"queue.postn_fetchn_ns", "ns"}, {"queue.post_fetch_allocs", "count"},
	{"queue.drop_total", "count"}, {"queue.fetch_wait_p50_us", "us"}, {"queue.post_wait_p50_us", "us"}, {"queue.depth_p90", "count"},

	{"msgpool.put_get_remove_ns", "ns"}, {"msgpool.forward_ns", "ns"}, {"msgpool.allocs", "count"},
	{"msgpool.copies_per_msg", "count"}, {"msgpool.miss_total", "count"},

	{"streamlet.hop_ns", "ns"}, {"streamlet.hop_allocs", "count"}, {"streamlet.fused_hop_ns", "ns"},
	{"streamlet.fused_hop_allocs", "count"}, {"streamlet.process_p50_us", "us"},

	{"services.switch.process_ns", "ns"}, {"services.switch.process_allocs", "count"},
	{"services.redirector.process_ns", "ns"}, {"services.redirector.process_allocs", "count"},
	{"services.merge.process_ns", "ns"}, {"services.merge.process_allocs", "count"},
	{"services.downsample.process_ns", "ns"}, {"services.downsample.process_allocs", "count"},
	{"services.gif2jpeg.process_ns", "ns"}, {"services.gif2jpeg.process_allocs", "count"},
	{"services.compress.process_ns", "ns"}, {"services.compress.process_allocs", "count"},

	{"stream.inlet_outlet_ns", "ns"}, {"stream.inlet_outlet_allocs", "count"}, {"stream.reconfig_us", "us"},
	{"stream.insert_remove_us", "us"}, {"stream.fused_segments", "count"}, {"stream.defuse_total", "count"},

	{"mcl.compile_us", "us"}, {"semantics.analyze_us", "us"},

	{"server.load_script_us", "us"}, {"server.deploy_us", "us"}, {"server.undeploy_us", "us"},
	{"server.cold_cycle_us", "us"}, {"server.connect_first_msg_us", "us"}, {"server.serve_request_ns", "ns"},
	{"server.paced_cpu_us_per_msg", "us"}, {"server.deploy_us_per_msg", "us"}, {"server.eager_close_lost_per_million", "count"},

	{"client.process_ns", "ns"}, {"client.process_allocs", "count"}, {"client.latency_p99_us", "us"}, {"client.reorder_total", "count"},

	{"session.admit_post_release_ns", "ns"}, {"session.connect_disconnect_ns", "ns"},
	{"netem.send_recv_ns", "ns"}, {"event.raise_deliver_us", "us"},

	{"obs.trace_overhead", "ratio"}, {"obs.span.inlet_us", "us"}, {"obs.span.queue_us", "us"},
	{"obs.span.process_us", "us"}, {"obs.span.forward_us", "us"}, {"obs.spans_per_msg", "count"},

	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_total_ms", "ms"}, {"runtime.goroutines_peak", "count"}, {"runtime.heap_inuse_mb", "MB"},

	{"loadgen.build_ns", "ns"}, {"loadgen.self_cpu_us_per_msg", "us"}, {"loadgen.lateness_p90_us", "us"}, {"loadgen.calib_ns", "ns"},

	{"ladder.sum_us_per_msg", "us"}, {"ladder.runtime_us_per_msg", "us"}, {"ladder.services_us_per_msg", "us"}, {"ladder.coverage", "ratio"},
}

// spanStats accumulates the gateway's own spans while a traced phase runs.
// The collector keeps only its most recent 16 Ki spans, so the main
// goroutine drains it at 10 Hz: the statistics are over those samples.
type spanStats struct {
	selfNs [4]float64 // inlet, queue, process, forward
	spans  float64
	msgs   float64
	last   []obs.Span // the final drain, kept for the trace file
}

// add folds one drained batch in. A span's self time is its duration minus
// what its direct children cover of it; a trace counts as a message when
// its root (inlet) span is in the batch.
func (s *spanStats) add(batch []obs.Span) {
	if len(batch) == 0 {
		return
	}
	s.last = batch
	type iv struct{ a, b int64 }
	children := make(map[uint64][]iv, len(batch))
	rooted := make(map[uint64]bool, len(batch)/8)
	for _, sp := range batch {
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], iv{sp.StartNs, sp.StartNs + sp.DurNs})
		}
		if sp.Kind == obs.SpanInlet {
			rooted[sp.TraceID] = true
		}
	}
	s.msgs += float64(len(rooted))
	for _, sp := range batch {
		if !rooted[sp.TraceID] || sp.Kind > obs.SpanForward {
			continue
		}
		self := sp.DurNs
		end := sp.StartNs + sp.DurNs
		for _, c := range children[sp.SpanID] {
			a, b := max(c.a, sp.StartNs), min(c.b, end)
			if b > a {
				self -= b - a
			}
		}
		if self < 0 {
			self = 0
		}
		s.selfNs[sp.Kind] += float64(self)
		s.spans++
	}
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Note     string           `json:"note"`
	Harness  map[string]any   `json:"harnessSpanMeansUs"`
	Messages map[string]any   `json:"messages"`
	Gateway  []map[string]any `json:"gatewaySpans"`
}

func writeTrace(o options, b *bed, st *spanStats) (string, error) {
	tf := traceFile{
		Workload: o.sp.name, Seed: o.seed,
		Note:     "times are ns since process start; harness spans per message: loadgen.build = buildStartNs→sentNs (built and offered to the front-end's channel), gateway = sentNs→readNs, client.process = readNs→processedNs, verify = processedNs→verifiedNs; traceId joins a message to the gateway's own spans",
		Harness:  map[string]any{},
		Messages: map[string]any{},
	}
	var build, gwNs, proc, ver, nb, ns float64
	for _, s := range b.slots {
		build += float64(s.sumBuild)
		nb += float64(s.nBuild)
		gwNs += float64(s.sumGateway)
		proc += float64(s.sumProcess)
		ver += float64(s.sumVerify)
		ns += float64(s.nSpans)
		var recs []hspan
		for _, h := range s.ring {
			if h.VerifyNs != 0 {
				recs = append(recs, h)
			}
		}
		tf.Messages[fmt.Sprintf("slot%d", s.idx)] = recs
	}
	if nb > 0 && ns > 0 {
		tf.Harness["loadgen.build"] = build / nb / 1e3
		tf.Harness["gateway"] = gwNs / ns / 1e3
		tf.Harness["client.process"] = proc / ns / 1e3
		tf.Harness["verify"] = ver / ns / 1e3
	}
	const maxGatewaySpans = 4096
	for i, sp := range st.last {
		if i == maxGatewaySpans {
			break
		}
		tf.Gateway = append(tf.Gateway, map[string]any{
			"traceId": sp.TraceID, "spanId": sp.SpanID, "parentId": sp.ParentID,
			"kind": sp.Kind.String(), "name": sp.Name, "startNs": sp.StartNs, "durNs": sp.DurNs, "bytes": sp.Bytes,
		})
	}
	dir := "out"
	if p, err := findUp("workloads"); err == nil {
		dir = filepath.Join(filepath.Dir(p), "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, o.sp.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedSat is a closed-loop phase with the gateway's span tracing on; the
// collector is drained on every tick.
func (b *bed) tracedSat(sp *spec, d time.Duration, st *spanStats) *phaseStats {
	obs.Spans().Drain()
	obs.SetSpansEnabled(true)
	defer obs.SetSpansEnabled(false)
	return b.timed(sp, d, false, func() { st.add(obs.Spans().Drain()) })
}

// selfCost runs the same sources, sockets and readers against a server that
// only copies origin messages to the socket: the harness's own CPU per
// message, which every end-to-end CPU figure includes.
func selfCost(o options, corp *corpus) (float64, error) {
	conns := connCount()
	slots := make([]*slot, conns)
	d, err := startDirect(source(slots))
	if err != nil {
		return 0, err
	}
	b := &bed{slots: slots}
	cl := mobigate.NewClient(mobigate.ClientOptions{}, nil)
	for i := range slots {
		s := newSlot(i, o.sp, corp, d.ln.Addr().String(), cl, conns)
		s.direct, s.sessionLen = true, 0
		if s.pace, err = newPacer(); err != nil {
			return 0, err
		}
		s.mode.Store(phaseSat)
		slots[i] = s
	}
	for _, s := range slots {
		b.wg.Add(1)
		go s.run(&b.wg)
	}
	dur := 1500 * time.Millisecond
	if o.smoke {
		dur = 200 * time.Millisecond
	}
	time.Sleep(dur / 5)
	m0 := b.mark()
	time.Sleep(dur)
	m1 := b.mark()
	b.setMode(phaseStop)
	b.wg.Wait()
	d.close()
	if b.failed() > 0 || m1.verified == m0.verified {
		return 0, fmt.Errorf("harness self-cost run failed: %v", b.err())
	}
	return float64((m1.cpu - m0.cpu).Microseconds()) / float64(m1.verified-m0.verified), nil
}

// eagerClose is the diagnostic probe for the front-end's end-of-session
// race: sessions whose source closes its channel right after the last
// message, as a plain server.Source would. It returns messages lost per
// million; they are not failures of the run.
func eagerClose(o options, script string, corp *corpus) (float64, error) {
	sessions := int64(250)
	if o.smoke {
		sessions = 10
	}
	b, err := startBed(o.sp, script, corp, 1, func(s *slot) {
		s.sessionLen, s.eager = 8, true
		s.mode.Store(phaseSat)
	})
	if err != nil {
		return 0, err
	}
	s := b.slots[0]
	ok := waitFor(60*time.Second, func() bool {
		return s.sessionsTried.Load() >= sessions || s.sessionsFailed.Load() >= maxFailedSessions*10
	})
	b.stop()
	if !ok {
		return 0, fmt.Errorf("eager-close probe stalled: %v", b.err())
	}
	return float64(s.failedMsgs.Load()) / float64(s.attempted.Load()) * 1e6, nil
}

// regDelta is the growth of a registry counter between two snapshots.
func regDelta(a, b map[string]float64, key string) float64 { return b[key] - a[key] }

// runTraced is the per-layer run: one set-up round, a short untraced and a
// short traced closed-loop phase (their ratio is the tracing overhead), a
// short paced phase, then the ladder, the harness's self-cost and the
// eager-close probe. End-to-end metrics never come from this run.
func runTraced(o options) (*result, error) {
	script, err := loadScript(o.sp.script)
	if err != nil {
		return nil, err
	}
	r := &result{values: map[string]float64{}}
	su, err := setUp(o, script)
	if err != nil {
		return nil, err
	}
	b := su.bed
	r.set("server.cold_cycle_us", su.coldCycleUs)
	runtime.GC()

	phase := time.Duration(o.seconds / 6 * float64(time.Second))
	b.setMode(phaseSat)
	sat := b.timed(o.sp, phase, true, nil)
	st := &spanStats{}
	traced := b.tracedSat(o.sp, phase, st)
	pc := b.paced(o.sp, phase)
	sessions := b.sum(func(s *slot) int64 { return s.sessionsTried.Load() })
	b.stop()
	r.collectCounts(b, true)

	e2e := &result{values: map[string]float64{}}
	satMetrics(e2e, sat)
	tput := e2e.values["throughput_msgs_per_s"]
	n := float64(sat.msgs())

	// Registry counters and gauges over the untraced phase.
	r.set("queue.drop_total", regDelta(sat.reg0, sat.reg1, obs.MQueueDropTotal))
	r.set("queue.fetch_wait_p50_us", sat.reg1[obs.MQueueFetchWaitSeconds+`{quantile="0.5"}`]*1e6)
	r.set("queue.post_wait_p50_us", sat.reg1[obs.MQueuePostWaitSeconds+`{quantile="0.5"}`]*1e6)
	r.set("queue.depth_p90", percentile(sat.depth, 0.9))
	r.set("msgpool.copies_per_msg", regDelta(sat.reg0, sat.reg1, obs.MPoolCopyTotal)/n)
	r.set("msgpool.miss_total", regDelta(sat.reg0, sat.reg1, obs.MPoolMissTotal))
	var p50s []float64
	for k, v := range sat.reg1 {
		if strings.HasPrefix(k, obs.MStreamletProcessSeconds+"{") && strings.Contains(k, `quantile="0.5"`) && v > 0 {
			p50s = append(p50s, v*1e6)
		}
	}
	r.set("streamlet.process_p50_us", mean(p50s))
	r.set("stream.defuse_total", regDelta(sat.reg0, sat.reg1, obs.MFusionDefuseTotal))
	if len(b.spliceNs) > 0 {
		r.set("stream.reconfig_us", median(int64sToFloats(b.spliceNs, 1e-3)))
	}
	r.set("runtime.gc_cycles", float64(sat.mem1.NumGC-sat.mem0.NumGC))
	r.set("runtime.gc_pause_total_ms", float64(sat.mem1.PauseTotalNs-sat.mem0.PauseTotalNs)/1e6)
	r.set("runtime.goroutines_peak", float64(sat.goroutines))
	r.set("runtime.heap_inuse_mb", float64(sat.mem1.HeapInuse)/(1<<20))

	// The traced phase.
	te := &result{values: map[string]float64{}}
	satMetrics(te, traced)
	r.set("obs.trace_overhead", te.values["throughput_msgs_per_s"]/tput)
	if st.msgs > 0 {
		r.set("obs.span.inlet_us", st.selfNs[obs.SpanInlet]/st.msgs/1e3)
		r.set("obs.span.queue_us", st.selfNs[obs.SpanQueue]/st.msgs/1e3)
		r.set("obs.span.process_us", st.selfNs[obs.SpanProcess]/st.msgs/1e3)
		r.set("obs.span.forward_us", st.selfNs[obs.SpanForward]/st.msgs/1e3)
		r.set("obs.spans_per_msg", st.spans/st.msgs)
	}

	// The paced phase and the sessions.
	lat, late, _ := b.latencies(pc)
	r.set("client.latency_p99_us", percentile(lat, 0.99))
	r.set("loadgen.lateness_p90_us", percentile(late, 0.90))
	if l := percentile(late, 0.90); l > 1000 {
		r.notes = append(r.notes, fmt.Sprintf("FLAG: open-loop generator ran late (p90 %.0f µs > 1 ms): paced latencies of this run include harness delay", l))
	}
	r.set("server.paced_cpu_us_per_msg", float64((pc.end.cpu-pc.start.cpu).Microseconds())/float64(pc.msgs()))
	r.set("client.reorder_total", float64(b.sum(func(s *slot) int64 { return s.reorders.Load() })))
	var first []float64
	for _, s := range append(b.slots, su.coldSlots...) {
		first = append(first, int64sToFloats(s.connectFirst, 1e-3)...)
	}
	r.set("server.connect_first_msg_us", median(first))

	path, err := writeTrace(o, b, st)
	if err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "trace written to "+path)

	self, err := selfCost(o, su.corp)
	if err != nil {
		return nil, err
	}
	r.set("loadgen.self_cpu_us_per_msg", self)
	lost, err := eagerClose(o, script, su.corp)
	if err != nil {
		return nil, err
	}
	r.set("server.eager_close_lost_per_million", lost)

	l := &ladder{o: o, corp: su.corp, script: script, r: r, reps: 3}
	if o.smoke {
		l.reps = 2
	}
	if err := l.run(); err != nil {
		return nil, err
	}
	cpu := e2e.values["cpu_us_per_msg"]
	r.set("ladder.coverage", r.values["ladder.sum_us_per_msg"]/(cpu-self))
	total := float64(b.sum(func(s *slot) int64 { return s.attempted.Load() }))
	r.set("server.deploy_us_per_msg", (r.values["server.deploy_us"]+r.values["server.undeploy_us"])*float64(sessions)/total)
	r.notes = append(r.notes,
		fmt.Sprintf("untraced sat: %.0f msg/s, %.2f µs CPU/msg of which harness %.2f; traced sat: %.0f msg/s", tput, cpu, self, te.values["throughput_msgs_per_s"]),
		fmt.Sprintf("ladder shares of sum+harness: runtime %.0f %%, services %.0f %%, harness+TCP %.0f %%",
			100*r.values["ladder.runtime_us_per_msg"]/(r.values["ladder.sum_us_per_msg"]+self),
			100*r.values["ladder.services_us_per_msg"]/(r.values["ladder.sum_us_per_msg"]+self),
			100*self/(r.values["ladder.sum_us_per_msg"]+self)))
	r.correct = r.failed == 0
	return r, nil
}

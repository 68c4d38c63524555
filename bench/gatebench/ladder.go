package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mobigate"
	"mobigate/internal/event"
	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/netem"
	"mobigate/internal/queue"
	"mobigate/internal/server"
	"mobigate/internal/services"
	"mobigate/internal/session"
	"mobigate/internal/stream"
	"mobigate/internal/streamlet"
)

// The cost ladder: every layer a message crosses, timed from outside by
// calling the layer's exported functions in a loop over the workload's own
// messages. Iteration counts are fixed; each rung is the median of a few
// repetitions. Single-goroutine rungs report wall time, rungs that run a
// pipeline of goroutines report process CPU time per message, which is what
// adds up to the end-to-end cpu_us_per_msg.

// timing is one rung: per-operation medians.
type timing struct {
	wallNs, cpuNs, allocs float64
}

type ladder struct {
	o      options
	corp   *corpus
	script string
	r      *result
	reps   int
}

// iters scales a rung's nominal iteration count (sized for 512 B relay
// messages) to the workload, so that every rung stays a fixed amount of work
// of a few tenths of a second.
func (l *ladder) iters(n int) int {
	n /= l.o.sp.ladderDiv
	if l.o.smoke {
		n /= 25
	}
	if n < 2 {
		n = 2
	}
	return n
}

// measure runs fn(n) a few times and returns per-operation medians.
func (l *ladder) measure(n int, fn func(n int)) timing {
	n = l.iters(n)
	var wall, cpu, allocs []float64
	for rep := 0; rep < l.reps; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := cpuTime(), time.Now()
		fn(n)
		w, c := time.Since(t0), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		wall = append(wall, float64(w.Nanoseconds())/float64(n))
		cpu = append(cpu, float64(c.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return timing{median(wall), median(cpu), median(allocs)}
}

// fresh builds n origin messages outside the timed region, for rungs whose
// operation consumes or rewrites its input.
func (l *ladder) fresh(c *corpus, n int, keep func(*item) bool) []*mime.Message {
	out := make([]*mime.Message, 0, n)
	for id := int64(0); len(out) < n; id++ {
		if keep == nil || keep(c.item(id)) {
			out = append(out, c.build(id))
		}
	}
	return out
}

// passThrough is a processor that forwards its input and allocates nothing,
// so a hop built on it costs only what the runtime adds.
type passThrough struct{ out [1]streamlet.Emission }

func (p *passThrough) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	p.out[0] = streamlet.Emission{Msg: in.Msg}
	return p.out[:], nil
}

// drive pushes n messages through an in-process stream with at most w in
// flight. Deliveries are taken by a second goroutine, so a Send that waits
// for room in the inlet queue never stops the outlet from draining.
func drive(in *stream.Inlet, out *stream.Outlet, n, w int, mk func(i int) *mime.Message, sink func(*mime.Message)) error {
	got := make(chan error, w) // one token per delivery: the window
	go func() {
		for i := 0; i < n; i++ {
			m, err := out.Receive(10 * time.Second)
			if err == nil && sink != nil {
				sink(m)
			}
			got <- err
			if err != nil {
				return
			}
		}
	}()
	recv := 0
	for i := 0; i < n; i++ {
		if i >= w {
			if err := <-got; err != nil {
				return err
			}
			recv++
		}
		if err := in.Send(mk(i)); err != nil {
			return err
		}
	}
	for ; recv < n; recv++ {
		if err := <-got; err != nil {
			return err
		}
	}
	return nil
}

// chain builds k pass-through streamlets in a line; stateful ones never
// fuse, stateless ones fuse into one segment.
func chain(k int, kind mcl.StreamletKind) (*stream.Stream, *stream.Inlet, *stream.Outlet, error) {
	st := stream.New("ladder", msgpool.New(msgpool.ByReference), nil)
	prev := ""
	for i := 0; i < k; i++ {
		id := fmt.Sprintf("h%d", i)
		if _, err := st.AddStreamlet(id, &mcl.StreamletDecl{Kind: kind}, &passThrough{}); err != nil {
			return nil, nil, nil, err
		}
		if prev != "" {
			if err := st.Connect(mobigate.Port(prev, "po"), mobigate.Port(id, "pi"), nil); err != nil {
				return nil, nil, nil, err
			}
		}
		prev = id
	}
	in, err := st.OpenInlet(mobigate.Port("h0", "pi"), 0)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := st.OpenOutlet(mobigate.Port(prev, "po"))
	if err != nil {
		return nil, nil, nil, err
	}
	st.Start()
	return st, in, out, nil
}

// hopCost is (9-hop chain − 1-hop chain) / 8 in CPU time and allocations.
func (l *ladder) hopCost(kind mcl.StreamletKind) (ns, allocs float64, err error) {
	var t [2]timing
	for i, k := range []int{1, 9} {
		st, in, out, cerr := chain(k, kind)
		if cerr != nil {
			return 0, 0, cerr
		}
		t[i] = l.measure(20000, func(n int) {
			if derr := drive(in, out, n, l.o.sp.window, func(i int) *mime.Message { return l.corp.build(int64(i)) }, nil); derr != nil {
				err = derr
			}
		})
		st.End()
	}
	return (t[1].cpuNs - t[0].cpuNs) / 8, (t[1].allocs - t[0].allocs) / 8, err
}

// calib is a fixed single-thread SHA-256 loop: it tells a slow host from a
// slow program. It is reported, never used to normalise anything.
func calib() float64 {
	block := make([]byte, 1024)
	const rounds = 20000
	t0 := time.Now()
	var sum [32]byte
	for i := 0; i < rounds; i++ {
		block[0] = byte(i)
		sum = sha256.Sum256(block)
	}
	_ = sum
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// workloadStream deploys the workload's own compiled chain in-process (no
// front-end, no TCP) in the configuration the workload measures.
func (l *ladder) workloadStream() (*mobigate.Gateway, *stream.Stream, *stream.Inlet, *stream.Outlet, error) {
	gw := mobigate.NewGateway(mobigate.GatewayOptions{})
	if err := gw.LoadScript(l.script); err != nil {
		return nil, nil, nil, nil, err
	}
	st, err := gw.Deploy(l.o.sp.stream)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	entry, exit, err := server.EntryExit(gw.Config().Stream(l.o.sp.stream))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	in, err := st.OpenInlet(entry, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	out, err := st.OpenOutlet(exit)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if l.o.sp.lowBandwidth {
		if err := st.RunWhen(event.LOW_BANDWIDTH); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return gw, st, in, out, nil
}

// countingDiscard counts Write calls: WriteToV hands a plain writer one
// Write for the header block and one per body segment.
type countingDiscard struct {
	writes atomic.Int64
	wake   chan struct{}
}

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.writes.Add(1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return len(p), nil
}

// run climbs the ladder and files every rung in the result.
func (l *ladder) run() error {
	r, sp, w := l.r, l.o.sp, l.o.sp.window
	set := func(name string, v float64) { r.set(name, v) }
	calib0 := calib()

	const cycle = 64
	msgs := l.fresh(l.corp, cycle, nil) // a cycle of the workload's origin messages
	wire := make([][]byte, cycle)
	for i, m := range msgs {
		wire[i] = m.Encode()
	}

	// loadgen: what the harness itself adds per message.
	var keep *mime.Message
	build := l.measure(200000, func(n int) {
		for i := 0; i < n; i++ {
			keep = l.corp.build(int64(i))
		}
	})
	_ = keep
	set("loadgen.build_ns", build.wallNs)

	// mime: the wire codec on the workload's messages.
	br := bufio.NewReaderSize(nil, 64<<10)
	rd := bytes.NewReader(nil)
	var rungErr error
	note := func(err error) {
		if err != nil && rungErr == nil {
			rungErr = err
		}
	}
	t := l.measure(50000, func(n int) {
		for i := 0; i < n; i++ {
			rd.Reset(wire[i%cycle])
			br.Reset(rd)
			m, err := mime.ReadMessage(br)
			if err != nil {
				note(err)
				return
			}
			m.Recycle()
		}
	})
	set("mime.read_ns", t.wallNs)
	set("mime.read_allocs", t.allocs)
	t = l.measure(50000, func(n int) {
		for i := 0; i < n; i++ {
			m, err := mime.Decode(wire[i%cycle])
			if err != nil {
				note(err)
				return
			}
			m.Recycle()
		}
	})
	set("mime.decode_ns", t.wallNs)
	var enc []byte
	t = l.measure(50000, func(n int) {
		for i := 0; i < n; i++ {
			enc = msgs[i%cycle].Encode()
		}
	})
	_ = enc
	set("mime.encode_ns", t.wallNs)
	t = l.measure(200000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := msgs[i%cycle].WriteToV(io.Discard); err != nil {
				note(err)
				return
			}
		}
	})
	set("mime.writev_ns", t.wallNs)
	set("mime.writev_allocs", t.allocs)
	t = l.measure(50000, func(n int) {
		for i := 0; i < n; i++ {
			msgs[i%cycle].Clone().Recycle()
		}
	})
	set("mime.clone_ns", t.wallNs)

	// queue: one channel hand-off, single and batched.
	size := msgs[0].Len()
	q := queue.New("ladder", queue.Options{CapacityBytes: 1 << 30})
	t = l.measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			if err := q.Post("m", size, nil); err != nil {
				note(err)
				return
			}
			q.TryFetch()
			q.Ack()
		}
	})
	set("queue.post_fetch_ns", t.wallNs)
	set("queue.post_fetch_allocs", t.allocs)
	const batch = 32
	entries := make([]queue.Entry, batch)
	for i := range entries {
		entries[i] = queue.Entry{MsgID: "m", Size: size}
	}
	items := make([]queue.Item, batch)
	t = l.measure(2000000, func(n int) {
		for i := 0; i < n; i += batch {
			if _, _, err := q.PostN(entries, nil); err != nil {
				note(err)
				return
			}
			q.TryFetchN(items)
			q.AckN(batch)
		}
	})
	set("queue.postn_fetchn_ns", t.wallNs)

	// msgpool: the central pool's per-message and per-hop operations.
	pool := msgpool.New(msgpool.ByReference)
	t = l.measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			id := pool.Put(msgs[i%cycle])
			if _, err := pool.Get(id); err != nil {
				note(err)
				return
			}
			pool.Remove(id)
		}
	})
	set("msgpool.put_get_remove_ns", t.wallNs)
	set("msgpool.allocs", t.allocs)
	fid := pool.Put(msgs[0])
	t = l.measure(2000000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pool.Forward(fid); err != nil {
				note(err)
				return
			}
		}
	})
	set("msgpool.forward_ns", t.wallNs)

	// streamlet: what one hop adds around a Process that does nothing.
	hop, hopAllocs, err := l.hopCost(mcl.Stateful)
	note(err)
	set("streamlet.hop_ns", hop)
	set("streamlet.hop_allocs", hopAllocs)
	fhop, fhopAllocs, err := l.hopCost(mcl.Stateless)
	note(err)
	set("streamlet.fused_hop_ns", fhop)
	set("streamlet.fused_hop_allocs", fhopAllocs)

	// services: direct Process calls. The relay workloads carry opaque
	// bodies, so the transcoders get the web-acceleration corpus instead.
	svc := l.corp
	if sp.relay {
		if svc, err = buildCorpus(findSpec("webaccel-mixed"), l.o.seed); err != nil {
			return err
		}
	}
	isImage := func(it *item) bool { return it.image }
	isText := func(it *item) bool { return !it.image }
	serviceRung := func(name string, n int, p streamlet.Processor, port string, inputs func(n int) []*mime.Message) []*mime.Message {
		// Process consumes or rewrites its input: every repetition gets
		// its own, prepared outside the timed region.
		var ins [][]*mime.Message
		for rep := 0; rep < l.reps; rep++ {
			ins = append(ins, inputs(l.iters(n)))
		}
		var outs []*mime.Message
		rep := 0
		t := l.measure(n, func(n int) {
			in := ins[rep]
			rep++
			outs = outs[:0]
			for i := 0; i < n; i++ {
				em, err := p.Process(streamlet.Input{Port: port, Msg: in[i]})
				if err != nil {
					note(fmt.Errorf("%s: %w", name, err))
					return
				}
				outs = append(outs, em[0].Msg)
			}
		})
		set("services."+name+".process_ns", t.wallNs)
		set("services."+name+".process_allocs", t.allocs)
		return outs
	}
	own := func(n int) []*mime.Message { return l.fresh(l.corp, n, nil) }
	serviceRung("switch", 100000, services.NewDistillationSwitch(), "pi", own)
	serviceRung("redirector", 50000, services.Redirector{}, "pi", own)
	serviceRung("merge", 100000, &services.Merge{}, "pi1", own)
	down := serviceRung("downsample", 400, &services.DownSampler{}, "pi",
		func(n int) []*mime.Message { return l.fresh(svc, n, isImage) })
	tj := &services.Transcoder{}
	note(tj.SetParam("quality", "4"))
	// gif2jpeg runs on down-sampled rasters, as in the chain; Process
	// rewrites its input, so every repetition gets its own copies.
	serviceRung("gif2jpeg", 400, tj, "pi", func(n int) []*mime.Message {
		out := make([]*mime.Message, n)
		for i := range out {
			out[i] = down[i%len(down)].Clone()
		}
		return out
	})
	serviceRung("compress", 400, &services.Compressor{}, "pi",
		func(n int) []*mime.Message { return l.fresh(svc, n, isText) })

	// stream: the workload's compiled chain, Inlet.Send → Outlet.Receive.
	gw, st, in, out, err := l.workloadStream()
	if err != nil {
		return err
	}
	chainIters := 20000
	if !sp.relay {
		chainIters = 4000 // the chain's services are ~100x a relay hop
	}
	var delivered []*mime.Message
	t = l.measure(chainIters, func(n int) {
		delivered = delivered[:0]
		note(drive(in, out, n, w, func(i int) *mime.Message { return l.corp.build(int64(i)) },
			func(m *mime.Message) { delivered = append(delivered, m) }))
	})
	inletOutlet := t.cpuNs - build.wallNs
	set("stream.inlet_outlet_ns", inletOutlet)
	set("stream.inlet_outlet_allocs", t.allocs-build.allocs)
	// Visits per message and which of them ran inside a fused segment.
	interior := map[string]bool{}
	for _, seg := range st.FusedSegments() {
		for _, id := range seg[1:] {
			interior[id] = true
		}
	}
	set("stream.fused_segments", float64(len(st.FusedSegments())))
	snap := st.StatsSnapshot()
	var total uint64
	for _, is := range snap.Instances {
		if is.Processed > total {
			total = is.Processed // the entry streamlet sees every message
		}
	}
	var unfused, fused, svcNs float64
	sc := gw.Config().Stream(sp.stream)
	for _, is := range snap.Instances {
		if total == 0 {
			break
		}
		visits := float64(is.Processed) / float64(total)
		if interior[is.ID] {
			fused += visits
		} else {
			unfused += visits
		}
		if inst := sc.Instance(is.ID); inst != nil && inst.Decl != nil {
			lib := inst.Decl.Library
			svcNs += visits * r.values["services."+lib[strings.IndexByte(lib, '/')+1:]+".process_ns"]
		}
	}

	// client: reverse processing of what the chain delivered.
	cl := mobigate.NewClient(mobigate.ClientOptions{}, nil)
	nd := len(delivered)
	ci := 0
	t = timing{}
	if nd > 0 {
		// One pass over the last repetition's deliveries; Process consumes
		// its input, so the count is what was delivered.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for ; ci < nd; ci++ {
			if _, err := cl.Process(delivered[ci]); err != nil {
				note(err)
				break
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		t = timing{wallNs: float64(d.Nanoseconds()) / float64(nd), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(nd)}
	}
	set("client.process_ns", t.wallNs)
	set("client.process_allocs", t.allocs)
	gw.Close()

	// stream: reconfiguration of a live relay chain under traffic.
	ins, err := l.insertRemove()
	note(err)
	set("stream.insert_remove_us", mean(ins))
	if _, ok := r.values["stream.reconfig_us"]; !ok {
		set("stream.reconfig_us", median(ins))
	}

	// mcl, semantics, server: the deploy path, piece by piece.
	var cfg *mobigate.Config
	t = l.measure(300, func(n int) {
		for i := 0; i < n; i++ {
			if cfg, err = mobigate.CompileMCL(l.script); err != nil {
				note(err)
				return
			}
		}
	})
	set("mcl.compile_us", t.wallNs/1e3)
	t = l.measure(2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := mobigate.AnalyzeStream(cfg, sp.stream, mobigate.AnalysisRules{}); err != nil {
				note(err)
				return
			}
		}
	})
	set("semantics.analyze_us", t.wallNs/1e3)
	gw = mobigate.NewGateway(mobigate.GatewayOptions{})
	t = l.measure(300, func(n int) {
		for i := 0; i < n; i++ {
			if err := gw.LoadScript(l.script); err != nil {
				note(err)
				return
			}
		}
	})
	set("server.load_script_us", t.wallNs/1e3)
	var dep, undep []float64
	for i, n := 0, l.iters(1500); i < n; i++ {
		alias := fmt.Sprintf("%s#ladder%d", sp.stream, i)
		t0 := time.Now()
		if _, err := gw.DeployInstance(sp.stream, alias); err != nil {
			note(err)
			break
		}
		t1 := time.Now()
		note(gw.Undeploy(alias))
		dep = append(dep, float64(t1.Sub(t0).Nanoseconds())/1e3)
		undep = append(undep, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	set("server.deploy_us", median(dep))
	set("server.undeploy_us", median(undep))

	// server: the front-end's relay loop without TCP.
	serve, err := l.serveRequest(gw, chainIters)
	note(err)
	set("server.serve_request_ns", serve.cpuNs-build.wallNs)
	gw.Close()

	// session, netem, event: layers no TCP workload reaches with at most
	// GOMAXPROCS connections; ladder only.
	sq := queue.New("ladder-sess", queue.Options{CapacityBytes: 1 << 24})
	tbl, err := session.NewTable(session.Config{}, session.NewPlane("ladder-sess", sq))
	if err != nil {
		return err
	}
	sess, err := tbl.Connect("hot")
	if err != nil {
		return err
	}
	t = l.measure(1000000, func(n int) {
		for i := 0; i < n; i++ {
			if err := sess.Post("m", size, nil); err != nil {
				note(err)
				return
			}
			sq.TryFetch()
			sq.Ack()
			sess.Release(size, 0)
		}
	})
	set("session.admit_post_release_ns", t.wallNs)
	ids := make([]string, l.iters(100000))
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%d", i)
	}
	t = l.measure(100000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tbl.Connect(ids[i]); err != nil {
				note(err)
				return
			}
			tbl.Disconnect(ids[i])
		}
	})
	set("session.connect_disconnect_ns", t.wallNs)
	tbl.Close()

	link, err := netem.New(netem.Config{BandwidthBps: 1_000_000, Delay: time.Millisecond, Mode: netem.Virtual})
	if err != nil {
		return err
	}
	t = l.measure(200000, func(n int) {
		for i := 0; i < n; i++ {
			if err := link.Send(msgs[i%cycle]); err != nil {
				note(err)
				return
			}
			link.TryReceive()
		}
	})
	set("netem.send_recv_ns", t.wallNs)
	link.Close()

	mgr := event.NewManager(nil)
	got := make(chan struct{}, 1)
	mgr.Subscribe(event.NetworkVariation, eventProbe(got))
	t = l.measure(20000, func(n int) {
		for i := 0; i < n; i++ {
			if err := mgr.Raise(event.LOW_BANDWIDTH, ""); err != nil {
				note(err)
				return
			}
			<-got
		}
	})
	set("event.raise_deliver_us", t.wallNs/1e3)
	mgr.Close()

	set("loadgen.calib_ns", (calib0+calib())/2)

	// The ladder's sum along this workload's path, in µs of CPU per message.
	ends := r.values["msgpool.put_get_remove_ns"] + r.values["queue.post_fetch_ns"]
	frontend := r.values["server.serve_request_ns"] - inletOutlet
	if frontend < 0 {
		frontend = 0
	}
	runtimeNs := unfused*hop + fused*fhop + ends + frontend
	sum := (runtimeNs + svcNs) / 1e3
	set("ladder.sum_us_per_msg", sum)
	set("ladder.runtime_us_per_msg", runtimeNs/1e3)
	set("ladder.services_us_per_msg", svcNs/1e3)
	r.notes = append(r.notes, fmt.Sprintf("ladder path: %.2f unfused hops and %.2f fused hops per message, front-end %.0f ns, ends %.0f ns", unfused, fused, frontend, ends))
	return rungErr
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// eventProbe is a subscriber that signals each delivery.
type eventProbe chan struct{}

func (eventProbe) SubscriberName() string { return "gatebench" }
func (p eventProbe) OnEvent(event.ContextEvent) {
	select {
	case p <- struct{}{}:
	default:
	}
}

// insertRemove times Stream.Insert / Stream.Remove (µs each) on an
// in-process relay chain while a feeder keeps traffic flowing through it.
func (l *ladder) insertRemove() ([]float64, error) {
	churn := findSpec("control-churn")
	script, err := loadScript(churn.script)
	if err != nil {
		return nil, err
	}
	gw := mobigate.NewGateway(mobigate.GatewayOptions{})
	defer gw.Close()
	if err := gw.LoadScript(script); err != nil {
		return nil, err
	}
	st, err := gw.Deploy(churn.stream)
	if err != nil {
		return nil, err
	}
	sc := gw.Config().Stream(churn.stream)
	entry, exit, err := server.EntryExit(sc)
	if err != nil {
		return nil, err
	}
	in, err := st.OpenInlet(entry, 0)
	if err != nil {
		return nil, err
	}
	out, err := st.OpenOutlet(exit)
	if err != nil {
		return nil, err
	}
	corp, err := buildCorpus(churn, l.o.seed)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	feedErr := make(chan error, 1)
	go func() {
		var err error
		for !stop.Load() && err == nil {
			err = drive(in, out, 256, churn.window, func(i int) *mime.Message { return corp.build(int64(i)) }, nil)
		}
		feedErr <- err
	}()
	var us []float64
	for i, n := 0, l.iters(100); i < n && err == nil; i++ {
		t0 := time.Now()
		if i%2 == 0 {
			if st.Streamlet(churn.spare) == nil {
				err = st.NewStreamlet(churn.spare, sc.Instance(churn.spare).Decl)
			}
			if err == nil {
				err = st.Insert(churn.spliceAfter, churn.spliceBefore, churn.spare, "pi", "po")
			}
		} else {
			err = st.Remove(churn.spare, time.Second)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	stop.Store(true)
	if ferr := <-feedErr; err == nil {
		err = ferr
	}
	return us, err
}

// serveRequest times Frontend.ServeRequest writing to a discarding writer:
// deploy, feed, relay loop, X-Seq stamp and WriteToV, but no socket.
func (l *ladder) serveRequest(gw *mobigate.Gateway, iters int) (timing, error) {
	fe := mobigate.NewFrontend(gw, nil)
	sp, w := l.o.sp, l.o.sp.window
	var err error
	t := l.measure(iters, func(n int) {
		sink := &countingDiscard{wake: make(chan struct{}, 1)}
		src := make(chan *mime.Message)
		done := make(chan error, 1)
		go func() { done <- fe.ServeRequest(sp.stream, src, sink) }()
		if sp.lowBandwidth {
			var st *stream.Stream
			waitFor(5*time.Second, func() bool {
				if d := gw.Deployed(); len(d) == 1 {
					st = gw.Stream(d[0])
				}
				return st != nil
			})
			if st == nil {
				err = fmt.Errorf("ServeRequest did not deploy")
			} else if rerr := st.RunWhen(event.LOW_BANDWIDTH); rerr != nil {
				err = rerr
			}
		}
		for i := 0; i < n; i++ {
			// Two writes a message: the window is counted in deliveries.
			for int64(i)-sink.writes.Load()/2 >= int64(w) {
				<-sink.wake
			}
			src <- l.corp.build(int64(i))
		}
		close(src)
		if serr := <-done; serr != nil && err == nil {
			err = serr
		}
	})
	return t, err
}

// Benchmarks regenerating the thesis's evaluation (Chapter 7), one bench
// per figure, plus ablation benches for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// The printed series correspond to the paper's figures; see EXPERIMENTS.md
// for the paper-vs-measured comparison.
package mobigate

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"mobigate/internal/event"
	"mobigate/internal/experiments"
	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
	"mobigate/internal/queue"
	"mobigate/internal/server"
	"mobigate/internal/services"
	"mobigate/internal/session"
	"mobigate/internal/stream"
	"mobigate/internal/streamlet"
)

// chainBench pushes b.N messages of msgSize bytes through k redirectors,
// reporting per-message latency (the Figure 7-2 quantity).
func chainBench(b *testing.B, k, msgSize int, mode msgpool.Mode) {
	b.Helper()
	pool := msgpool.New(mode)
	st := stream.New("bench", pool, nil)
	prev := ""
	for i := 0; i < k; i++ {
		id := fmt.Sprintf("r%d", i)
		if _, err := st.AddStreamlet(id, nil, services.Redirector{}); err != nil {
			b.Fatal(err)
		}
		if prev != "" {
			if err := st.Connect(Port(prev, "po"), Port(id, "pi"), nil); err != nil {
				b.Fatal(err)
			}
		}
		prev = id
	}
	in, err := st.OpenInlet(Port("r0", "pi"), 1<<24)
	if err != nil {
		b.Fatal(err)
	}
	out, err := st.OpenOutlet(Port(prev, "po"))
	if err != nil {
		b.Fatal(err)
	}
	st.Start()
	defer st.End()

	body := services.GenText(msgSize, 1)
	b.SetBytes(int64(msgSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMessage(services.TypePlainText, body)
		if err := in.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := out.Receive(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perStreamlet := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(k)
	b.ReportMetric(perStreamlet, "ns/streamlet")
}

// BenchmarkFig72StreamletOverhead regenerates Figure 7-2: per-message delay
// versus the number of chained redirector streamlets (10 KB messages).
func BenchmarkFig72StreamletOverhead(b *testing.B) {
	for _, k := range []int{1, 5, 10, 15, 20, 25, 30} {
		b.Run(fmt.Sprintf("streamlets=%d", k), func(b *testing.B) {
			chainBench(b, k, 10*1024, msgpool.ByReference)
		})
	}
}

// BenchmarkFig73PassByReference / BenchmarkFig73PassByValue regenerate
// Figure 7-3: 30 redirectors, message sizes 10 KB … 1000 KB, under the two
// buffer-management schemes.
func BenchmarkFig73PassByReference(b *testing.B) {
	for _, size := range []int{10 << 10, 50 << 10, 100 << 10, 200 << 10, 400 << 10, 700 << 10, 1000 << 10} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			chainBench(b, 30, size, msgpool.ByReference)
		})
	}
}

func BenchmarkFig73PassByValue(b *testing.B) {
	for _, size := range []int{10 << 10, 50 << 10, 100 << 10, 200 << 10, 400 << 10, 700 << 10, 1000 << 10} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			chainBench(b, 30, size, msgpool.ByValue)
		})
	}
}

// BenchmarkFig76Reconfiguration regenerates Figure 7-6: the time to insert
// n redirector streamlets into a running stream (the ReconfigExp reaction).
func BenchmarkFig76Reconfiguration(b *testing.B) {
	for _, n := range []int{1, 5, 10, 20, 50, 100} {
		b.Run(fmt.Sprintf("inserted=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pool := msgpool.New(msgpool.ByReference)
				st := stream.New("reconf", pool, nil)
				if _, err := st.AddStreamlet("a", nil, services.Redirector{}); err != nil {
					b.Fatal(err)
				}
				if _, err := st.AddStreamlet("z", nil, services.Redirector{}); err != nil {
					b.Fatal(err)
				}
				if err := st.Connect(Port("a", "po"), Port("z", "pi"), nil); err != nil {
					b.Fatal(err)
				}
				ids := make([]string, n)
				for j := 0; j < n; j++ {
					ids[j] = fmt.Sprintf("ins%d", j)
					if _, err := st.AddStreamlet(ids[j], nil, services.Redirector{}); err != nil {
						b.Fatal(err)
					}
				}
				st.Start()
				prev := "a"
				b.StartTimer()
				for j := 0; j < n; j++ {
					if err := st.Insert(prev, "z", ids[j], "pi", "po"); err != nil {
						b.Fatal(err)
					}
					prev = ids[j]
				}
				b.StopTimer()
				st.End()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/insert")
		})
	}
}

// BenchmarkEq71Decomposition reports the suspend / channel / activate terms
// of the reconfiguration-time equation.
func BenchmarkEq71Decomposition(b *testing.B) {
	var agg stream.ReconfigTiming
	runs := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Eq71([]int{10})
		if err != nil {
			b.Fatal(err)
		}
		agg.Suspend += rows[0].Suspend
		agg.Channels += rows[0].Channels
		agg.Activate += rows[0].Activate
		runs++
	}
	b.ReportMetric(float64(agg.Suspend.Nanoseconds())/float64(runs), "ns/suspend10")
	b.ReportMetric(float64(agg.Channels.Nanoseconds())/float64(runs), "ns/channels10")
	b.ReportMetric(float64(agg.Activate.Nanoseconds())/float64(runs), "ns/activate10")
}

// BenchmarkFig77EndToEnd regenerates Figure 7-7: end-to-end information
// throughput with and without MobiGATE over the emulated wireless link.
// Reported metrics are in Kb/s of original information delivered.
func BenchmarkFig77EndToEnd(b *testing.B) {
	for _, bw := range []int64{20_000, 100_000, 500_000, 2_000_000} {
		b.Run(fmt.Sprintf("bw=%dKbps", bw/1000), func(b *testing.B) {
			cfg := experiments.Fig77Config{
				BandwidthsBps: []int64{bw},
				Delays:        []time.Duration{time.Millisecond},
				Messages:      30,
				ImageRatio:    0.5,
				Seed:          2004,
			}
			var with, without, calibrated float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig77(cfg)
				if err != nil {
					b.Fatal(err)
				}
				with = rows[0].WithBps
				without = rows[0].WithoutBps
				calibrated = rows[0].WithCalibratedBps
			}
			b.ReportMetric(with/1000, "Kbps-with")
			b.ReportMetric(without/1000, "Kbps-without")
			b.ReportMetric(calibrated/1000, "Kbps-with-2004hw")
		})
	}
}

// --- Ablation benches -----------------------------------------------------

// BenchmarkAblationStreamletPooling compares stateless-processor pooling
// against per-request construction (§3.3.4's design choice).
func BenchmarkAblationStreamletPooling(b *testing.B) {
	decl := &mcl.StreamletDecl{Name: "c", Kind: mcl.Stateless, Library: services.LibTextCompress}
	for _, pooled := range []bool{true, false} {
		name := "pooled"
		if !pooled {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			dir := streamlet.NewDirectory()
			services.RegisterAll(dir)
			m := server.NewStreamletManager(dir)
			m.DisablePooling = !pooled
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := m.Acquire(decl)
				if err != nil {
					b.Fatal(err)
				}
				m.Release(decl, p)
			}
		})
	}
}

// BenchmarkAblationChannelModes compares synchronous rendezvous channels
// against asynchronous buffered ones (§4.2.2's channel Type attribute).
func BenchmarkAblationChannelModes(b *testing.B) {
	for _, mode := range []mcl.ChannelMode{mcl.Async, mcl.Sync} {
		b.Run(mode.String(), func(b *testing.B) {
			q := queue.New("ab", queue.Options{Mode: mode, CapacityBytes: 1 << 20})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if _, ok := q.Fetch(nil); !ok {
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Post("m", 64, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			q.Close()
			<-done
		})
	}
}

// BenchmarkAblationEventFiltering compares multicast with category
// subscription filtering against flooding every application (§6.4's
// subscription design).
func BenchmarkAblationEventFiltering(b *testing.B) {
	const apps = 64
	makeApps := func(m *event.Manager, subscribeAll bool) {
		for i := 0; i < apps; i++ {
			app := benchSubscriber(fmt.Sprintf("app%d", i))
			if subscribeAll {
				for c := event.Category(0); c < event.CategoryCount; c++ {
					m.Subscribe(c, app)
				}
			} else {
				m.Subscribe(event.Category(i%int(event.CategoryCount)), app)
			}
		}
	}
	evt := event.ContextEvent{EventID: event.LOW_BANDWIDTH, Category: event.NetworkVariation}
	b.Run("filtered", func(b *testing.B) {
		m := event.NewManager(nil)
		defer m.Close()
		makeApps(m, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Multicast(evt)
		}
	})
	b.Run("flooded", func(b *testing.B) {
		m := event.NewManager(nil)
		defer m.Close()
		makeApps(m, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Multicast(evt)
		}
	})
}

type benchSubscriber string

func (s benchSubscriber) SubscriberName() string     { return string(s) }
func (s benchSubscriber) OnEvent(event.ContextEvent) {}

// BenchmarkMCLCompile measures full front-end cost (lex, parse, compile,
// type-check) on the web-acceleration script.
func BenchmarkMCLCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompileMCL(experiments.WebAccelScript); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemanticAnalysis measures the chapter-5 analyses on the compiled
// web-acceleration stream.
func BenchmarkSemanticAnalysis(b *testing.B) {
	cfg, err := CompileMCL(experiments.WebAccelScript)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := AnalyzeStream(cfg, "webaccel", AnalysisRules{})
		if err != nil || !rep.OK() {
			b.Fatalf("%v %v", err, rep)
		}
	}
}

// --- Micro-benchmarks on the substrates ------------------------------------

// BenchmarkMIMEWireCodec measures the wire encode+decode round trip the
// Communicator and Message Distributor pay per message.
func BenchmarkMIMEWireCodec(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			m := NewMessage(services.TypePlainText, services.GenText(size, 1))
			m.SetSession("sess-bench")
			m.PushPeer("text/decompress")
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire := m.Encode()
				if _, err := mime.Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpanOverhead measures what end-to-end span tracing costs on the
// Figure 7-2 chain (10 redirectors, 10 KB messages): the off case is the
// production hot path (header parse short-circuits on the enabled flag),
// the on case pays the full per-hop span recording.
func BenchmarkSpanOverhead(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "spans=off"
		if on {
			name = "spans=on"
		}
		b.Run(name, func(b *testing.B) {
			was := obs.SpansEnabled()
			obs.SetSpansEnabled(on)
			defer obs.SetSpansEnabled(was)
			chainBench(b, 10, 10*1024, msgpool.ByReference)
		})
	}
}

// BenchmarkQueuePostFetch measures one post+fetch+ack cycle through a
// MessageQueue.
func BenchmarkQueuePostFetch(b *testing.B) {
	q := queue.New("bench", queue.Options{CapacityBytes: 1 << 24})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Post("m", 64, nil); err != nil {
			b.Fatal(err)
		}
		if _, ok := q.TryFetch(); !ok {
			b.Fatal("fetch failed")
		}
		q.Ack()
	}
}

// BenchmarkPoolForward compares the per-hop cost of the two buffer
// management schemes in isolation (the mechanism under Figure 7-3).
func BenchmarkPoolForward(b *testing.B) {
	for _, mode := range []msgpool.Mode{msgpool.ByReference, msgpool.ByValue} {
		b.Run(mode.String(), func(b *testing.B) {
			pool := msgpool.New(mode)
			m := NewMessage(services.TypePlainText, services.GenText(64<<10, 1))
			id := pool.Put(m)
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fid, err := pool.Forward(id)
				if err != nil {
					b.Fatal(err)
				}
				if fid != id {
					pool.Remove(fid)
				}
			}
		})
	}
}

// BenchmarkServiceStreamlets measures the standalone cost of each standard
// service on representative payloads.
func BenchmarkServiceStreamlets(b *testing.B) {
	img := services.GenImageMessage(64, 64, 1)
	txt := services.GenTextMessage(8<<10, 1)
	cases := []struct {
		name string
		proc streamlet.Processor
		msg  func() *mime.Message
	}{
		{"downsample", &services.DownSampler{}, func() *mime.Message { return img.Clone() }},
		{"gray16", services.Gray16Mapper{}, func() *mime.Message { return img.Clone() }},
		{"gif2jpeg", &services.Transcoder{}, func() *mime.Message { return img.Clone() }},
		{"compress", &services.Compressor{}, func() *mime.Message { return txt.Clone() }},
		{"redirector", services.Redirector{}, func() *mime.Message { return txt.Clone() }},
		{"sign", &services.Signer{}, func() *mime.Message { return txt.Clone() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			// Fresh inputs are prepared in batches outside the timer: one
			// StopTimer/StartTimer pair per chunk instead of per iteration,
			// so the timer toggling cannot skew the per-transform ns/op
			// benchdiff tracks.
			const chunk = 256
			msgs := make([]*mime.Message, chunk)
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := chunk
				if rem := b.N - done; rem < n {
					n = rem
				}
				b.StopTimer()
				for i := 0; i < n; i++ {
					msgs[i] = c.msg()
				}
				b.StartTimer()
				for i := 0; i < n; i++ {
					if _, err := c.proc.Process(streamlet.Input{Port: "pi", Msg: msgs[i]}); err != nil {
						b.Fatal(err)
					}
				}
				done += n
			}
		})
	}
}

// BenchmarkParallelChain measures end-to-end throughput of one gif2jpeg
// streamlet at increasing fan-out widths, order preserved by the
// resequencer. On a single-core machine the widths tie (the resequencer's
// overhead is what benchdiff then tracks); with cores to spare the wider
// rows pull ahead.
func BenchmarkParallelChain(b *testing.B) {
	img := services.GenImageMessage(64, 64, 1)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := msgpool.New(msgpool.ByReference)
			st := stream.New("par", pool, nil)
			if _, err := st.AddStreamlet("t", nil, &services.Transcoder{}); err != nil {
				b.Fatal(err)
			}
			if err := st.Streamlet("t").SetWorkers(w); err != nil {
				b.Fatal(err)
			}
			in, err := st.OpenInlet(Port("t", "pi"), 1<<24)
			if err != nil {
				b.Fatal(err)
			}
			out, err := st.OpenOutlet(Port("t", "po"))
			if err != nil {
				b.Fatal(err)
			}
			st.Start()
			defer st.End()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if err := in.Send(img.Clone()); err != nil {
						return
					}
				}
			}()
			for i := 0; i < b.N; i++ {
				if _, err := out.Receive(30 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDropPolicy compares the §6.7 wait-then-drop postMessage
// against indefinite blocking when a fast producer outruns a slow consumer.
func BenchmarkAblationDropPolicy(b *testing.B) {
	cases := []struct {
		name    string
		timeout time.Duration
	}{
		{"wait-then-drop", 2 * time.Millisecond},
		{"block", -1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			q := queue.New("drop", queue.Options{CapacityBytes: 4 << 10, DropTimeout: c.timeout})
			done := make(chan struct{})
			go func() { // slow consumer: 10µs per message
				defer close(done)
				for {
					if _, ok := q.Fetch(nil); !ok {
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
			}()
			dropped := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Post("m", 1024, nil); err == queue.ErrDropped {
					dropped++
				} else if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			q.Close()
			<-done
			b.ReportMetric(float64(dropped)/float64(b.N)*100, "%dropped")
		})
	}
}

// --- Batched data plane -----------------------------------------------------

// BenchmarkQueuePostFetchBatch measures the batched queue operations at
// several batch widths. The loop advances b.N by the batch size, so ns/op
// is per *message* — directly comparable to BenchmarkQueuePostFetch, whose
// lock acquisition and broadcast the batch amortizes. The PR2 acceptance
// gate requires >= 2x at batch 32.
func BenchmarkQueuePostFetchBatch(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			q := queue.New("bench", queue.Options{CapacityBytes: 1 << 24})
			entries := make([]queue.Entry, n)
			for i := range entries {
				entries[i] = queue.Entry{MsgID: "m", Size: 64}
			}
			dst := make([]queue.Item, n)
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				if _, _, err := q.PostN(entries, nil); err != nil {
					b.Fatal(err)
				}
				if got := q.TryFetchN(dst); got != n {
					b.Fatalf("TryFetchN = %d, want %d", got, n)
				}
				q.AckN(n)
			}
		})
	}
}

// BenchmarkMIMEWriteToV compares serializing a contiguous body through
// WriteTo against a three-segment chained body through the vectored
// WriteToV (64 KB payload either way). The chained row must stay in the
// same cost class — the chain's point is avoiding the transform-side copy,
// not adding encode-side cost — and must stay allocation-free (gated by
// benchdiff -zeroalloc).
func BenchmarkMIMEWriteToV(b *testing.B) {
	const size = 64 << 10
	b.Run("contiguous", func(b *testing.B) {
		m := NewMessage(services.TypePlainText, services.GenText(size, 1))
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chained", func(b *testing.B) {
		m := NewMessage(services.TypePlainText, services.GenText(size-2048, 1))
		m.AppendBody(services.GenText(1024, 2))
		m.AppendBody(services.GenText(1024, 3))
		b.SetBytes(size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.WriteToV(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchChain measures end-to-end throughput of a five-redirector
// chain at increasing handoff batch sizes. The inlet is fed from a
// goroutine so queues actually accumulate — a send-one-wait-one loop would
// never give the batched pump more than one item to drain.
func BenchmarkBatchChain(b *testing.B) {
	const k = 5
	obs.SetTracingEnabled(false)
	defer obs.SetTracingEnabled(true)
	body := services.GenText(10*1024, 1)
	for _, n := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			pool := msgpool.New(msgpool.ByReference)
			st := stream.New("bchain", pool, nil)
			prev := ""
			for i := 0; i < k; i++ {
				id := fmt.Sprintf("r%d", i)
				if _, err := st.AddStreamlet(id, nil, services.Redirector{}); err != nil {
					b.Fatal(err)
				}
				if err := st.Streamlet(id).SetBatch(n); err != nil {
					b.Fatal(err)
				}
				if prev != "" {
					if err := st.Connect(Port(prev, "po"), Port(id, "pi"), nil); err != nil {
						b.Fatal(err)
					}
				}
				prev = id
			}
			in, err := st.OpenInlet(Port("r0", "pi"), 1<<24)
			if err != nil {
				b.Fatal(err)
			}
			out, err := st.OpenOutlet(Port(prev, "po"))
			if err != nil {
				b.Fatal(err)
			}
			st.Start()
			defer st.End()
			b.SetBytes(10 * 1024)
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if err := in.Send(NewMessage(services.TypePlainText, body)); err != nil {
						return
					}
				}
			}()
			for i := 0; i < b.N; i++ {
				if _, err := out.Receive(30 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionChurn measures the session layer's two costs: the
// control-plane churn (connect + disconnect of a fresh session against a
// populated sharded table) and the steady-state data hot path (quota
// admit, shared-plane post, fetch, release). The hot path must stay
// allocation-free — session accounting is atomics only, so multiplexing
// thousands of sessions onto one plane adds no per-message allocation —
// and is gated by benchdiff -zeroalloc.
func BenchmarkSessionChurn(b *testing.B) {
	newSessionPlane := func(b *testing.B) (*session.Table, *queue.Queue) {
		b.Helper()
		q := queue.New("bench-sess", queue.Options{CapacityBytes: 1 << 24})
		tbl, err := session.NewTable(session.Config{}, session.NewPlane("bench-sess", q))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tbl.Close)
		return tbl, q
	}
	b.Run("connect-disconnect", func(b *testing.B) {
		tbl, _ := newSessionPlane(b)
		// A resident population so connect hashes into non-empty shards.
		for i := 0; i < 1024; i++ {
			if _, err := tbl.Connect(fmt.Sprintf("resident-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		ids := make([]string, b.N)
		for i := range ids {
			ids[i] = fmt.Sprintf("churn-%d", i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tbl.Connect(ids[i]); err != nil {
				b.Fatal(err)
			}
			tbl.Disconnect(ids[i])
		}
	})
	b.Run("post-release", func(b *testing.B) {
		tbl, q := newSessionPlane(b)
		s, err := tbl.Connect("hot")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Post("m", 64, nil); err != nil {
				b.Fatal(err)
			}
			if _, ok := q.TryFetch(); !ok {
				b.Fatal("fetch failed")
			}
			q.Ack()
			s.Release(64, 0)
		}
	})
}

// BenchmarkSessionSLOSample is the observability hot-path gate: the
// post → fetch → release cycle of a *sampled* session — the one that also
// feeds its latency into the per-session quantile ring and checks the SLO
// budget — must stay as allocation-free as the unsampled path. Gated by
// benchdiff -zeroalloc.
func BenchmarkSessionSLOSample(b *testing.B) {
	q := queue.New("bench-slo", queue.Options{CapacityBytes: 1 << 24})
	tbl, err := session.NewTable(
		session.Config{SLOBudget: time.Millisecond},
		session.NewPlane("bench-slo", q))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tbl.Close)
	// The sampler picks ~1/64 ids deterministically; walk candidates until
	// one is selected.
	var s *session.Session
	for i := 0; s == nil; i++ {
		c, err := tbl.Connect(fmt.Sprintf("slo-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if c.Sampled() {
			s = c
		} else {
			tbl.Disconnect(c.ID())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Post("m", 64, nil); err != nil {
			b.Fatal(err)
		}
		if _, ok := q.TryFetch(); !ok {
			b.Fatal("fetch failed")
		}
		q.Ack()
		s.Release(64, 50_000) // 50µs: inside the budget, still observed
	}
}

// fusedBenchDecl is the eligibility ticket for the fusion benches: only
// declared-STATELESS instances fuse.
func fusedBenchDecl() *mcl.StreamletDecl { return &mcl.StreamletDecl{Kind: mcl.Stateless} }

// fixedEmit is an allocation-free pass-through: the emission slice is
// preallocated so the steady-state fused loop performs zero allocations.
type fixedEmit struct{ out [1]streamlet.Emission }

func (p *fixedEmit) Process(in streamlet.Input) ([]streamlet.Emission, error) {
	p.out[0] = streamlet.Emission{Msg: in.Msg}
	return p.out[:], nil
}

// BenchmarkFusedChain measures streamlet chain fusion on the worst case
// for per-hop overhead: a five-stage stateless chain at batch = 1, where
// every message otherwise pays four queue handoffs, four pool forwards and
// four pump wakeups. "unfused" and "fused" are the end-to-end pair the ≥2×
// fusion win is read from; "steady-state" recirculates one pooled message
// through the fused segment and must stay at 0 allocs/op (gated by
// benchdiff -zeroalloc).
func BenchmarkFusedChain(b *testing.B) {
	const k = 5
	obs.SetTracingEnabled(false)
	defer obs.SetTracingEnabled(true)
	body := services.GenText(10*1024, 1)

	// exitCap > 0 binds a raw exit queue of that capacity instead of an
	// Outlet: the steady-state recirculation window must never fill the
	// exit (a capacity-parked pump would charge wake-signal regeneration
	// to every bench-side dequeue).
	build := func(b *testing.B, fuse bool, exitCap int) (*stream.Stream, *stream.Inlet, *stream.Outlet) {
		b.Helper()
		st := stream.New("fzchain", msgpool.New(msgpool.ByReference), nil)
		prev := ""
		for i := 0; i < k; i++ {
			id := fmt.Sprintf("f%d", i)
			if _, err := st.AddStreamlet(id, fusedBenchDecl(), &fixedEmit{}); err != nil {
				b.Fatal(err)
			}
			if prev != "" {
				if err := st.Connect(Port(prev, "po"), Port(id, "pi"), nil); err != nil {
					b.Fatal(err)
				}
			}
			prev = id
		}
		in, err := st.OpenInlet(Port("f0", "pi"), 1<<24)
		if err != nil {
			b.Fatal(err)
		}
		var out *stream.Outlet
		if exitCap > 0 {
			xq := queue.New("fz-exit", queue.Options{CapacityBytes: exitCap})
			if err := st.BindOutRef(Port(prev, "po"), xq); err != nil {
				b.Fatal(err)
			}
		} else {
			if out, err = st.OpenOutlet(Port(prev, "po")); err != nil {
				b.Fatal(err)
			}
		}
		if !fuse {
			if err := st.SetFusion(false); err != nil {
				b.Fatal(err)
			}
		}
		st.Start()
		b.Cleanup(st.End)
		if got := len(st.FusedSegments()) > 0; got != fuse {
			b.Fatalf("fused=%v, want %v", got, fuse)
		}
		return st, in, out
	}

	endToEnd := func(fuse bool) func(b *testing.B) {
		return func(b *testing.B) {
			_, in, out := build(b, fuse, 0)
			b.SetBytes(10 * 1024)
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					if err := in.Send(NewMessage(services.TypePlainText, body)); err != nil {
						return
					}
				}
			}()
			for i := 0; i < b.N; i++ {
				if _, err := out.Receive(30 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("unfused", endToEnd(false))
	b.Run("fused", endToEnd(true))

	b.Run("steady-state", func(b *testing.B) {
		st, _, _ := build(b, true, 1<<24)
		// Recirculate a window of pooled messages: the exit flush hands each
		// by-reference pool entry back intact, so re-posting the fetched id
		// exercises the entire fused hop — fetch, five Process calls, sink
		// flush, ack — with no per-iteration message creation. The bench
		// side drains and refills in whole batches (TryFetchN + PostN into
		// an oversized raw exit queue) so queue parking stays off the
		// per-message path: on a single-CPU box the pump drains the window
		// within one scheduling quantum and parks, and a message-at-a-time
		// refill would then pay the wake-signal regeneration — an artifact
		// of the ping-pong harness, not of the fused path — on every Post.
		// Batched, that cost amortizes to one wake per window. (Outlet
		// Receive would remove the pool entry; fetch the exit raw.)
		hq := st.Streamlet("f0").Ins()["pi"]
		xq := st.Streamlet("f4").Outs()["po"]
		const window = 64
		for i := 0; i < window; i++ {
			id := st.Pool().Put(NewMessage(services.TypePlainText, body))
			if err := hq.Post(id, len(body), nil); err != nil {
				b.Fatal(err)
			}
		}
		items := make([]queue.Item, window)
		ents := make([]queue.Entry, window)
		b.ResetTimer()
		b.ReportAllocs()
		for done := 0; done < b.N; {
			n := xq.TryFetchN(items)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			xq.AckN(n)
			for i := 0; i < n; i++ {
				ents[i] = queue.Entry{MsgID: items[i].MsgID, Size: len(body)}
			}
			if _, _, err := hq.PostN(ents[:n], nil); err != nil {
				b.Fatal(err)
			}
			done += n
		}
	})
}

// Command mobibench regenerates the thesis's Chapter 7 evaluation as
// printed series, one table per figure:
//
//	mobibench -exp fig7.2   # streamlet overhead vs chain length
//	mobibench -exp fig7.3   # passing by reference vs by value
//	mobibench -exp fig7.6   # reconfiguration time vs insertions
//	mobibench -exp eq7.1    # reconfiguration time decomposition
//	mobibench -exp fig7.7   # end-to-end throughput sweep
//	mobibench -exp hops     # per-hop time composition (§7.3 breakdown)
//	mobibench -exp faults   # fault-injection survival (supervision subsystem)
//	mobibench -exp spans    # end-to-end span trees across the link
//	mobibench -exp parallel # workers fan-out scaling
//	mobibench -exp adapt    # autopilot when-policies vs static compositions
//	mobibench -exp batch    # batched-handoff sweep (delivery + FIFO asserted)
//	mobibench -exp sessions # multi-session shared-plane scale (conservation + admission)
//	mobibench -exp health   # health model: degrade under overload, policy reacts, recover
//	mobibench -exp fusion   # chain fusion: fused vs per-hop equivalence + mid-run insert
//	mobibench -exp all      # everything
//
// The list above, the -exp dispatch, and the usage text all come from the
// experimentsTable in this file; docscheck verifies this comment and the
// table agree.
//
// -spans additionally runs the span-trace experiment after the hops
// breakdown and asserts the reconstructed trees (the make obs-smoke gate).
//
// Shapes, not absolute numbers, are the comparison target: the 2004 Java
// testbed measured ~12 ms per streamlet; this runtime measures microseconds
// (see EXPERIMENTS.md, which records both).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mobigate/internal/experiments"
)

// experimentsTable is the single source of truth for -exp modes: the
// dispatch, the usage text, and the package comment's list are all derived
// from or checked against it (the last by docscheck). `all` is implicit
// and runs every row except spans, which stays opt-in via -spans because
// it flips the global span toggle.
var experimentsTable = []struct {
	name string
	desc string
	run  func()
}{
	{"fig7.2", "streamlet overhead vs chain length", runFig72},
	{"fig7.3", "passing by reference vs by value", runFig73},
	{"fig7.6", "reconfiguration time vs insertions", runFig76},
	{"eq7.1", "reconfiguration time decomposition", runEq71},
	{"fig7.7", "end-to-end throughput sweep", runFig77},
	{"hops", "per-hop time composition (§7.3 breakdown)", runHops},
	{"faults", "fault-injection survival (supervision subsystem)", runFaults},
	{"spans", "end-to-end span trees across the link", runSpans},
	{"parallel", "workers fan-out scaling", runParallel},
	{"adapt", "autopilot when-policies vs static compositions", runAdapt},
	{"batch", "batched-handoff sweep (delivery + FIFO asserted)", runBatch},
	{"sessions", "multi-session shared-plane scale (conservation + admission)", runSessions},
	{"health", "health model: degrade under overload, policy reacts, recover", runHealth},
	{"fusion", "chain fusion: fused vs per-hop equivalence + mid-run insert", runFusion},
}

// experimentList renders the table for the usage text and the unknown-mode
// error.
func experimentList() string {
	var b strings.Builder
	for _, e := range experimentsTable {
		fmt.Fprintf(&b, "  %-9s %s\n", e.name, e.desc)
	}
	b.WriteString("  all       everything above except spans (add -spans to include it)\n")
	return b.String()
}

var (
	exp       = flag.String("exp", "all", "experiment to run (or \"all\"); run with -exp help for the list")
	spans     = flag.Bool("spans", false, "enable span tracing: run the end-to-end trace-tree experiment after hops and assert the reconstruction")
	messages  = flag.Int("messages", 60, "messages per fig7.7 point")
	samples   = flag.Int("samples", 50, "messages per latency sample (fig7.2/7.3)")
	loss      = flag.Float64("loss", 0, "link loss rate for fig7.7 (0..1)")
	bandwidth = flag.Int64("bandwidth", 100_000, "link bandwidth for the hops breakdown (bits/s)")
	sessions  = flag.Int("sessions", 100_000, "concurrent session population for -exp sessions")
	cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memprof   = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file (go tool pprof)")
)

// startProfiles arms the pprof outputs and returns the shutdown hook main
// defers: CPU sampling covers every selected experiment; the heap profile
// is a single post-run snapshot taken after a GC so live retention, not
// transient garbage, is what the profile shows.
func startProfiles() func() {
	var cpu *os.File
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if *memprof != "" {
			f, err := os.Create(*memprof)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			f.Close()
		}
	}
}

func main() {
	flag.Parse()
	defer startProfiles()()
	switch *exp {
	case "all":
		for _, e := range experimentsTable {
			if e.name == "spans" {
				continue // opt-in via -spans below
			}
			e.run()
		}
		if *spans {
			runSpans()
		}
		return
	case "help", "list":
		fmt.Print("experiments:\n" + experimentList())
		return
	}
	for _, e := range experimentsTable {
		if e.name != *exp {
			continue
		}
		e.run()
		if e.name == "hops" && *spans {
			runSpans()
		}
		return
	}
	fmt.Fprintf(os.Stderr, "mobibench: unknown experiment %q; available:\n%s", *exp, experimentList())
	os.Exit(1)
}

func runFig72() {
	fmt.Println("=== Figure 7-2: streamlet overhead (10 KB messages) ===")
	fmt.Println("streamlets  per-message     per-streamlet")
	rows, err := experiments.Fig72([]int{1, 5, 10, 15, 20, 25, 30}, 10*1024, *samples)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%10d  %12v  %14v\n", r.Streamlets, r.PerMessage.Round(time.Microsecond), r.PerStreamlet.Round(time.Microsecond))
	}
	fmt.Println()
}

func runFig73() {
	fmt.Println("=== Figure 7-3: passing by reference vs passing by value (30 redirectors) ===")
	fmt.Println("  size(KB)  by-reference      by-value     ratio")
	sizes := []int{10 << 10, 50 << 10, 100 << 10, 200 << 10, 400 << 10, 700 << 10, 1000 << 10}
	rows, err := experiments.Fig73(sizes, 30, *samples)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		ratio := float64(r.ByValue) / float64(r.ByReference)
		fmt.Printf("%10d  %12v  %12v  %7.2fx\n",
			r.MessageBytes>>10,
			r.ByReference.Round(time.Microsecond),
			r.ByValue.Round(time.Microsecond), ratio)
	}
	fmt.Println()
}

func runFig76() {
	fmt.Println("=== Figure 7-6: reconfiguration overhead ===")
	fmt.Println(" inserted        total     per-insert")
	rows, err := experiments.Fig76([]int{1, 5, 10, 20, 50, 100})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%9d  %11v  %13v\n",
			r.Inserted, r.Total.Round(time.Microsecond),
			(r.Total / time.Duration(r.Inserted)).Round(time.Microsecond))
	}
	fmt.Println()
}

func runEq71() {
	fmt.Println("=== Equation 7-1: T = Σ suspend + n·channel + Σ activate ===")
	fmt.Println(" inserted      suspend     channels     activate")
	rows, err := experiments.Eq71([]int{1, 10, 50})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%9d  %11v  %11v  %11v\n", r.Inserted,
			r.Suspend.Round(time.Microsecond),
			r.Channels.Round(time.Microsecond),
			r.Activate.Round(time.Microsecond))
	}
	fmt.Println()
}

func runFig77() {
	fmt.Println("=== Figure 7-7: end-to-end throughput (Kb/s of original information) ===")
	fmt.Println("Columns: without MobiGATE | with MobiGATE (this hardware) | with MobiGATE")
	fmt.Println("(2004-calibrated 12 ms/streamlet overhead). TC = Text Compressor inserted.")
	cfg := experiments.DefaultFig77Config()
	cfg.Messages = *messages
	cfg.LossRate = *loss
	if *loss > 0 {
		fmt.Printf("(link loss rate %.0f%%)\n", *loss*100)
	}
	rows, err := experiments.Fig77(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var lastDelay time.Duration = -1
	for _, r := range rows {
		if r.Delay != lastDelay {
			fmt.Printf("\n-- transmission delay %v --\n", r.Delay)
			fmt.Println(" bw(Kb/s)    without       with   with-2004   reduction")
			lastDelay = r.Delay
		}
		tc := " "
		if r.Reconfigured {
			tc = "TC"
		}
		fmt.Printf("%9d  %9.1f  %9.1f  %10.1f  %8.2fx %s\n",
			r.BandwidthBps/1000,
			r.WithoutBps/1000, r.WithBps/1000, r.WithCalibratedBps/1000,
			r.ReductionRatio, tc)
	}
	fmt.Println()
}

func runFaults() {
	fmt.Println("=== Fault-injection survival: panics, a stall, and a blackout ===")
	r, err := experiments.Faults(experiments.DefaultFaultsConfig())
	if err != nil {
		fmt.Print(r)
		log.Fatal(err)
	}
	fmt.Print(r)
	fmt.Println()
}

func runHops() {
	fmt.Println("=== Per-hop time composition (§7.3): queue wait vs process vs transmit ===")
	cfg := experiments.DefaultHopsConfig()
	cfg.Messages = *messages
	cfg.LossRate = *loss
	cfg.BandwidthBps = *bandwidth
	b, err := experiments.Hops(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(b)
	fmt.Println()
}

// runParallel runs the order-preserving parallel-execution experiment:
// workers-scaling curves for the CPU-bound transcoders with exact-delivery
// and FIFO assertions. make parallel-smoke relies on the non-zero exit when
// any invariant breaks.
func runParallel() {
	fmt.Println("=== Parallel execution plane: workers fan-out ===")
	res, err := experiments.Parallel(experiments.DefaultParallelConfig())
	if res != nil {
		fmt.Print(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runSpans runs the end-to-end span-trace experiment and asserts the
// reconstruction: at least one message must yield a single connected tree
// that covers the server chain, the link transfer, and a client peer
// streamlet, with the span union within 5% of the measured response time,
// and the flight recorder must have journaled the run. make obs-smoke
// relies on the non-zero exit when any of these fail.
// runAdapt runs the adaptation-autopilot comparison: the same workload over
// a high → low → high bandwidth schedule through never-compress,
// always-compress, and the policy-driven autopilot. The experiment asserts
// that the autopilot strictly beats both statics on goodput with zero
// message loss, fires exactly once per threshold crossing, and emits the
// full observability triple per firing. make adapt-smoke relies on the
// non-zero exit when any of these fail.
func runAdapt() {
	fmt.Println("=== Adaptation autopilot: when-policies vs static compositions ===")
	res, err := experiments.Adapt(experiments.DefaultAdaptConfig())
	if res != nil {
		fmt.Print(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runBatch runs the batched-handoff sweep: the same redirector chain at
// batch = 1, 8, 32, 64 with exact-delivery and zero-reorder assertions at
// every point. make batch-smoke relies on the non-zero exit when either
// invariant breaks; throughput is reported, not gated.
func runBatch() {
	fmt.Println("=== Batched handoff: []*Message pumps across batch sizes ===")
	res, err := experiments.Batch(experiments.DefaultBatchConfig())
	if res != nil {
		fmt.Print(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runSessions runs the multi-session scale experiment: a shared-plane
// session table carrying -sessions concurrent logical sessions through
// traffic, churn/handoff rounds, and a deliberate admission overload. The
// experiment asserts end-to-end message conservation, bounded per-session
// heap growth, and non-zero admission shedding; make sessions-smoke relies
// on the non-zero exit when any of these fail.
func runSessions() {
	fmt.Printf("=== Multi-session gateway: %d sessions over shared planes ===\n", *sessions)
	cfg := experiments.DefaultSessionsConfig()
	cfg.Sessions = *sessions
	res, err := experiments.Sessions(cfg)
	fmt.Print(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runHealth runs the component-health experiment: a shared plane driven
// into load shedding, asserting the health model degrades (503 /healthz,
// HEALTH_DEGRADED flight entry and context event), a when-policy on the
// health_degraded signal fires, and the model recovers after the drain;
// make health-smoke relies on the non-zero exit when any assert fails.
func runHealth() {
	fmt.Println("=== Component health: overload -> degrade -> adapt -> recover ===")
	res, err := experiments.Health(experiments.DefaultHealthConfig())
	fmt.Print(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

// runFusion runs the chain-fusion experiment: the same stateless chain per-
// hop and fused must produce byte-identical output with exact conservation,
// zero reorders, and a faster fused run, and a mid-run Insert into the
// fused segment must de-fuse, apply, and re-fuse with zero loss and the
// defuse/fuse flight-recorder pair journaled. make fusion-smoke relies on
// the non-zero exit when any invariant breaks.
func runFusion() {
	fmt.Println("=== Chain fusion: direct-call fused hops vs per-hop queues ===")
	res, err := experiments.Fusion(experiments.DefaultFusionConfig())
	if res != nil {
		fmt.Print(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func runSpans() {
	fmt.Println("=== End-to-end span traces: server chain, link, client peers ===")
	res, err := experiments.TraceTree(experiments.DefaultTraceTreeConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Println()

	complete := 0
	for _, m := range res.Messages {
		if m.Connected && m.ClientSpans > 0 && strings.Contains(m.Tree, "link:") && m.Covered(0.05) {
			complete++
		}
	}
	if complete == 0 {
		log.Fatal("span smoke: no message produced a connected tree covering " +
			"server chain, link, and client peer with the union within 5% of wall time")
	}
	if res.FlightEvents == 0 {
		log.Fatal("span smoke: flight recorder journaled no events")
	}
	fmt.Printf("span smoke: %d/%d messages fully reconstructed end to end\n\n", complete, len(res.Messages))
}

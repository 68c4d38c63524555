package experiments

// The parallel-execution experiment behind `mobibench -exp parallel` and
// `make parallel-smoke`: a throughput scaling curve (workers × CPU-bound
// transform chains) with exact-delivery and FIFO assertions.

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/msgpool"
	"mobigate/internal/services"
	"mobigate/internal/stream"
	"mobigate/internal/streamlet"
)

// parSeqHeader carries the send-order stamp the receiver checks FIFO with.
const parSeqHeader = "X-Par-Seq"

// ParallelConfig parameterizes the experiment.
type ParallelConfig struct {
	// Workers are the fan-out widths of the scaling curve.
	Workers []int
	// Messages is how many messages each point pushes through the chain.
	Messages int
	// ImageSide is the square test-image edge (gif2jpeg chain input).
	ImageSide int
	// TextBytes is the text payload size (compress chain input).
	TextBytes int
	// Seed makes the generated workload reproducible.
	Seed int64
	// ReceiveTimeout bounds each outlet receive.
	ReceiveTimeout time.Duration
}

// DefaultParallelConfig returns the configuration the smoke gate runs.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{
		Workers:        []int{1, 2, 4, 8},
		Messages:       300,
		ImageSide:      64,
		TextBytes:      32 << 10,
		Seed:           7,
		ReceiveTimeout: 10 * time.Second,
	}
}

// ParallelRow is one point of the workers-scaling curve.
type ParallelRow struct {
	Service    string
	Workers    int
	Elapsed    time.Duration
	MsgsPerSec float64
	Sent       int
	Delivered  int
	Reorders   int
	// ReseqPeak is the resequencer's high-water pending depth (bounded by
	// workers-1 by construction; 0 in serial mode).
	ReseqPeak int64
	// Speedup is MsgsPerSec relative to the service's 1-worker row.
	Speedup float64
}

// ParallelResult is everything the experiment measured.
type ParallelResult struct {
	Cores int
	Rows  []ParallelRow
}

// String renders the result tables.
func (r *ParallelResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cores available: %d\n", r.Cores)
	if r.Cores < 4 {
		b.WriteString("(fewer than 4 cores: fan-out cannot speed up CPU-bound work here;\n" +
			" delivery and FIFO are still asserted, the speedup gate is skipped)\n")
	}
	b.WriteString("\n service    workers   msgs/s   speedup   sent  delivered  reorders  reseq-peak\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s  %8d  %7.0f  %7.2fx  %5d  %9d  %8d  %10d\n",
			row.Service, row.Workers, row.MsgsPerSec, row.Speedup,
			row.Sent, row.Delivered, row.Reorders, row.ReseqPeak)
	}
	return b.String()
}

// chainProc builds the transform under test.
func chainProc(service string) (streamlet.Processor, error) {
	switch service {
	case "gif2jpeg":
		return &services.Transcoder{}, nil
	case "compress":
		return &services.Compressor{}, nil
	}
	return nil, fmt.Errorf("parallel: unknown service %q", service)
}

func chainInput(service string, cfg ParallelConfig, seed int64) *mime.Message {
	if service == "gif2jpeg" {
		return services.GenImageMessage(cfg.ImageSide, cfg.ImageSide, seed)
	}
	return services.GenTextMessage(cfg.TextBytes, seed)
}

// runParallelChain pushes cfg.Messages through inlet → service → outlet
// with the given fan-out width and checks conservation and FIFO. msg is
// the payload template (cloned per send).
func runParallelChain(service string, workers int, proc streamlet.Processor, msg *mime.Message, cfg ParallelConfig) (ParallelRow, error) {
	row := ParallelRow{Service: service, Workers: workers}
	pool := msgpool.New(msgpool.ByReference)
	st := stream.New(fmt.Sprintf("par-%s-%d", service, workers), pool, nil)
	if _, err := st.AddStreamlet("t", nil, proc); err != nil {
		return row, err
	}
	if err := st.Streamlet("t").SetWorkers(workers); err != nil {
		return row, err
	}
	in, err := st.OpenInlet(mcl.PortRef{Inst: "t", Port: "pi"}, 1<<24)
	if err != nil {
		return row, err
	}
	out, err := st.OpenOutlet(mcl.PortRef{Inst: "t", Port: "po"})
	if err != nil {
		return row, err
	}
	st.Start()
	defer st.End()

	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < cfg.Messages; i++ {
			m := msg.Clone()
			m.SetHeader(parSeqHeader, strconv.Itoa(i))
			if err := in.Send(m); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()

	last := -1
	for i := 0; i < cfg.Messages; i++ {
		m, err := out.Receive(cfg.ReceiveTimeout)
		if err != nil {
			return row, fmt.Errorf("%s workers=%d: delivered %d of %d: %w",
				service, workers, row.Delivered, cfg.Messages, err)
		}
		row.Delivered++
		seq, err := strconv.Atoi(m.Header(parSeqHeader))
		if err != nil {
			return row, fmt.Errorf("%s workers=%d: message without %s stamp", service, workers, parSeqHeader)
		}
		if seq <= last {
			row.Reorders++
		}
		last = seq
	}
	row.Elapsed = time.Since(start)
	if err := <-sendErr; err != nil {
		return row, err
	}
	row.Sent = cfg.Messages
	row.MsgsPerSec = float64(row.Delivered) / row.Elapsed.Seconds()
	row.ReseqPeak = st.Streamlet("t").ResequencerPeak()
	return row, nil
}

// Parallel runs the scaling curve for both CPU-bound chains, returning an
// error when any invariant the smoke gate relies on is broken: lost or
// duplicated messages, any reorder, a resequencer depth above its
// workers-1 bound, or a sub-2x speedup at 4 workers on a ≥4-core machine.
func Parallel(cfg ParallelConfig) (*ParallelResult, error) {
	res := &ParallelResult{Cores: runtime.GOMAXPROCS(0)}

	for _, service := range []string{"gif2jpeg", "compress"} {
		msg := chainInput(service, cfg, cfg.Seed)
		var base float64
		for _, w := range cfg.Workers {
			proc, err := chainProc(service)
			if err != nil {
				return res, err
			}
			row, err := runParallelChain(service, w, proc, msg, cfg)
			if err != nil {
				return res, err
			}
			if row.Sent != row.Delivered {
				return res, fmt.Errorf("%s workers=%d: sent %d != delivered %d",
					service, w, row.Sent, row.Delivered)
			}
			if row.Reorders != 0 {
				return res, fmt.Errorf("%s workers=%d: %d reorders (FIFO violated)",
					service, w, row.Reorders)
			}
			if w > 1 && row.ReseqPeak > int64(w-1) {
				return res, fmt.Errorf("%s workers=%d: resequencer peak %d exceeds bound %d",
					service, w, row.ReseqPeak, w-1)
			}
			if w == 1 {
				base = row.MsgsPerSec
			}
			if base > 0 {
				row.Speedup = row.MsgsPerSec / base
			}
			res.Rows = append(res.Rows, row)
			// The speedup gate only means something when the hardware can
			// actually run 4 workers at once.
			if w == 4 && res.Cores >= 4 && row.Speedup < 2 {
				return res, fmt.Errorf("%s: %.2fx speedup at 4 workers on %d cores (want >= 2x)",
					service, row.Speedup, res.Cores)
			}
		}
	}

	return res, nil
}

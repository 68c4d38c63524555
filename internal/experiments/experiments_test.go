package experiments

import (
	"testing"
	"time"

	"mobigate/internal/msgpool"
	"mobigate/internal/obs"
)

func TestFig72ShapeLinear(t *testing.T) {
	rows, err := Fig72([]int{1, 10, 30}, 10*1024, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Delay must grow with the chain length once the per-streamlet work
	// dominates the fixed per-message cost (1 vs 30 is unambiguous).
	if rows[2].PerMessage <= rows[0].PerMessage {
		t.Errorf("delay not increasing: %v %v %v",
			rows[0].PerMessage, rows[1].PerMessage, rows[2].PerMessage)
	}
	// Roughly linear: tripling 10 -> 30 must stay well under quadratic.
	ratio := float64(rows[2].PerMessage) / float64(rows[1].PerMessage)
	if ratio > 6 {
		t.Errorf("3x chain length multiplied delay by %.1f", ratio)
	}
	for _, r := range rows {
		if r.PerStreamlet <= 0 {
			t.Errorf("per-streamlet delay %v", r.PerStreamlet)
		}
	}
}

// TestFig73ByReferenceWins checks the Figure 7-3 claim in counts, not
// time: the by-reference pool forwards a message down a redirector chain
// without copying its body at all, while the by-value pool deep-copies it
// at every hop, so its copied bytes grow with the message size. The timing
// curve itself is mobibench's (-exp fig7.3) and gatebench's to report.
func TestFig73ByReferenceWins(t *testing.T) {
	const redirectors, msgs = 10, 5
	copies := obs.DefaultCounter(obs.MPoolCopyTotal)
	// copiesPerMsg sends msgs messages of size bytes through a chain over
	// the given pool mode and returns the pool copies each one cost.
	copiesPerMsg := func(mode msgpool.Mode, size int) uint64 {
		st, in, out, err := buildRedirectorChain(redirectors, mode)
		if err != nil {
			t.Fatal(err)
		}
		defer st.End()
		before := copies.Value()
		for i := 0; i < msgs; i++ {
			if err := roundTrip(in, out, size, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return (copies.Value() - before) / msgs
	}
	var valBytes []uint64
	for _, size := range []int{10 * 1024, 400 * 1024} {
		if ref := copiesPerMsg(msgpool.ByReference, size); ref != 0 {
			t.Errorf("size %d: by-reference made %d copies (%d bytes) per message, want 0",
				size, ref, ref*uint64(size))
		}
		val := copiesPerMsg(msgpool.ByValue, size)
		if val == 0 {
			t.Errorf("size %d: by-value made no copies", size)
		}
		// Every copy clones the whole body.
		valBytes = append(valBytes, val*uint64(size))
	}
	if valBytes[1] <= valBytes[0] {
		t.Errorf("by-value copied bytes per message did not grow with size: %v", valBytes)
	}
}

func TestFig76ShapeAndBounds(t *testing.T) {
	rows, err := Fig76([]int{1, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !(rows[0].Total < rows[2].Total) {
		t.Errorf("reconfig time not increasing: %v vs %v", rows[0].Total, rows[2].Total)
	}
	// The paper bounds 10 insertions under 20 ms on 2004 hardware; modern
	// hardware must stay well under that.
	if rows[1].Total > 20*time.Millisecond {
		t.Errorf("10 insertions took %v", rows[1].Total)
	}
	for _, r := range rows {
		if r.Timing.Suspend+r.Timing.Channels+r.Timing.Activate <= 0 {
			t.Errorf("timing decomposition empty for n=%d", r.Inserted)
		}
	}
}

func TestEq71Decomposition(t *testing.T) {
	rows, err := Eq71([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Suspend <= 0 || r.Channels <= 0 || r.Activate <= 0 {
		t.Errorf("decomposition = %+v", r)
	}
}

func TestFig77PointLowBandwidth(t *testing.T) {
	cfg := Fig77Config{
		BandwidthsBps: []int64{50_000},
		Delays:        []time.Duration{time.Millisecond},
		Messages:      12,
		ImageRatio:    0.5,
		Seed:          7,
	}
	rows, err := Fig77(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if !r.Reconfigured {
		t.Error("compressor not inserted below threshold")
	}
	if r.ReductionRatio <= 1.5 {
		t.Errorf("reduction ratio = %.2f", r.ReductionRatio)
	}
	// At 50 Kb/s MobiGATE must beat direct transfer decisively.
	if r.WithBps <= r.WithoutBps {
		t.Errorf("MobiGATE %.0f bps did not beat direct %.0f bps", r.WithBps, r.WithoutBps)
	}
	if r.WithCalibratedBps <= r.WithoutBps {
		t.Errorf("calibrated MobiGATE %.0f bps did not beat direct %.0f bps at low bandwidth",
			r.WithCalibratedBps, r.WithoutBps)
	}
}

func TestFig77ConvergenceCalibrated(t *testing.T) {
	cfg := Fig77Config{
		BandwidthsBps: []int64{20_000, 2_000_000},
		Delays:        []time.Duration{time.Millisecond},
		Messages:      12,
		ImageRatio:    0.5,
		Seed:          7,
	}
	rows, err := Fig77(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, high := rows[0], rows[1]
	if low.Reconfigured == false || high.Reconfigured {
		t.Errorf("reconfiguration flags: low=%v high=%v", low.Reconfigured, high.Reconfigured)
	}
	// The calibrated advantage ratio must shrink as bandwidth grows
	// (the paper's convergence at 2 Mb/s).
	advLow := low.WithCalibratedBps / low.WithoutBps
	advHigh := high.WithCalibratedBps / high.WithoutBps
	if advHigh >= advLow {
		t.Errorf("advantage did not shrink: %.2fx at 20Kb/s vs %.2fx at 2Mb/s", advLow, advHigh)
	}
}

func TestFig77DelaySensitivity(t *testing.T) {
	cfg := Fig77Config{
		BandwidthsBps: []int64{200_000},
		Delays:        []time.Duration{time.Millisecond, 100 * time.Millisecond},
		Messages:      10,
		ImageRatio:    0.5,
		Seed:          7,
	}
	rows, err := Fig77(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Higher delay lowers throughput on both schemes (per-message ack).
	if rows[1].WithoutBps >= rows[0].WithoutBps {
		t.Errorf("direct throughput insensitive to delay: %.0f vs %.0f",
			rows[0].WithoutBps, rows[1].WithoutBps)
	}
	if rows[1].WithBps >= rows[0].WithBps {
		t.Errorf("MobiGATE throughput insensitive to delay: %.0f vs %.0f",
			rows[0].WithBps, rows[1].WithBps)
	}
}

func TestWebAccelScriptCompiles(t *testing.T) {
	// The embedded MCL must stay compilable and carry both reactions.
	rows, err := Fig77(Fig77Config{
		BandwidthsBps: []int64{500_000},
		Delays:        []time.Duration{time.Millisecond},
		Messages:      4,
		ImageRatio:    1.0, // image-only flow exercises the image branch
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ReductionRatio <= 2 {
		t.Errorf("image pipeline reduction = %.2f", rows[0].ReductionRatio)
	}
}

func TestFig77LossSlowsBothSchemes(t *testing.T) {
	base := Fig77Config{
		BandwidthsBps: []int64{200_000},
		Delays:        []time.Duration{time.Millisecond},
		Messages:      8,
		ImageRatio:    0.5,
		Seed:          7,
	}
	clean, err := Fig77(base)
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	lossy.LossRate = 0.3
	noisy, err := Fig77(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if noisy[0].WithoutBps >= clean[0].WithoutBps {
		t.Errorf("loss did not slow direct transfer: %.0f vs %.0f",
			clean[0].WithoutBps, noisy[0].WithoutBps)
	}
	if noisy[0].WithBps >= clean[0].WithBps {
		t.Errorf("loss did not slow MobiGATE: %.0f vs %.0f",
			clean[0].WithBps, noisy[0].WithBps)
	}
	// MobiGATE still wins under loss.
	if noisy[0].WithBps <= noisy[0].WithoutBps {
		t.Error("MobiGATE lost its advantage under loss")
	}
}

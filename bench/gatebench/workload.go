package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"mobigate/internal/mcl"
	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/streamlet"
)

// Headers the harness adds to origin messages. The gateway's services must
// carry unknown headers through, so these survive to the client.
const (
	headerBenchID  = "X-Bench-Id"
	headerBenchPad = "X-Bench-Pad"
	headerSlot     = "X-Bench-Slot"
	headerHops     = "X-Redirector-Hops"
)

// spec is one workload. Every number here is a constant of the benchmark:
// nothing is tuned at run time, so two runs of the same code do the same
// work. Paced rates were measured once on the reference box (≈ 25 % of the
// sat throughput, rounded) and frozen.
type spec struct {
	name string
	why  string

	script string // file, found by walking up from the working directory
	stream string

	relay      bool // relay.mcl (hop-count check) vs webaccel.mcl (transform check)
	bodyBytes  int  // relay body size
	corpusSize int  // distinct origin messages; message i carries item i mod corpusSize

	window    int     // W: ids in flight per connection
	pacedRate float64 // msg/s over all connections in the paced phase

	// churnLen > 0 makes the last connection slot open back-to-back sessions
	// of that many messages; reconfigEvery > 0 reconfigures slot 0's stream
	// at that period during the timed phases, alternately inserting the
	// spare instance between spliceAfter and spliceBefore and removing it.
	churnLen                         int
	reconfigEvery                    int // in 100 ms ticks
	spliceAfter, spliceBefore, spare string

	lowBandwidth bool // raise LOW_BANDWIDTH once after connecting (set-up)

	ladderDiv int // divides the ladder's nominal iteration counts (message size)

	setupCycles int // cold cycles per set-up round
	warmup      int // closed-loop warm-up messages per connection, per round
}

// maxInFlightBytes is the capacity of a default channel (mcl.DefaultBufferKB),
// which is what the front-end's inlet and outlet queues and every implicit
// channel get. A post into a full queue waits queue.DefaultDropTimeout (50 ms)
// and then drops the message — silently inside the chain, and fatally for
// the session at the inlet. The shared box stalls that long a few times an
// hour, so every workload keeps the most it can have in flight on one
// connection (window × largest body, plus pads) under one channel's
// capacity: then no post ever waits and a stall costs time, not messages.
const (
	maxInFlightBytes = mcl.DefaultBufferKB * 1024
	padBytes         = 4608 // > the front-end's 4 KiB write buffer
	maxPadsInFlight  = 3
)

const (
	relayScript    = "workloads/relay.mcl"
	webaccelScript = "testdata/webaccel.mcl"
)

var specs = []spec{
	{
		name: "relay-small", why: "bare forwarding of 512 B messages: per-message runtime cost (codec, queue, pump, msgpool, trace stamp, relay loop) is nearly all of the work",
		script: relayScript, stream: "relay", relay: true, bodyBytes: 512, corpusSize: 1024,
		window: 32, pacedRate: 12000, ladderDiv: 1, setupCycles: 150, warmup: 6000,
	},
	{
		name: "relay-large", why: "same hops with 40 KiB bodies, the largest that cannot fill a default 100 KB channel: byte movement (body read, vectored write, TCP) outweighs the hops, so a per-hop change predicts little change",
		script: relayScript, stream: "relay", relay: true, bodyBytes: 40 << 10, corpusSize: 128,
		window: 2, pacedRate: 250, ladderDiv: 10, setupCycles: 150, warmup: 800,
	},
	{
		name: "webaccel-mixed", why: "the paper's web-acceleration chain under LOW_BANDWIDTH on mixed images and text: service Process time dominates, runtime plumbing predicts no change",
		script: webaccelScript, stream: "webaccel", corpusSize: 512,
		window: 6, pacedRate: 500, lowBandwidth: true, ladderDiv: 4, setupCycles: 100, warmup: 300,
	},
	{
		name: "control-churn", why: "relay-small's data path with a reconfiguration every 100 ms on one session and back-to-back 64-message sessions on the other: a steady-state win paid for in deploy, fusion or drain cost shows here",
		script: relayScript, stream: "relay", relay: true, bodyBytes: 512, corpusSize: 1024,
		window: 32, pacedRate: 4000, churnLen: 64, reconfigEvery: 1, spliceAfter: "rt2", spliceBefore: "mg", spare: "rt3", ladderDiv: 1, setupCycles: 150, warmup: 4000,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// findUp locates rel in the working directory or the nearest parent that has
// it, so the program runs from bench/ (go run -C bench), from the package
// directory (go test) and from the repository root alike.
func findUp(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or any parent", rel)
		}
		dir = parent
	}
}

func loadScript(rel string) (string, error) {
	p, err := findUp(rel)
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// item is one origin message and what the client must end up holding.
type item struct {
	ctype mime.MediaType
	image bool
	body  []byte // origin body; shared by every message built from this item
	want  []byte // body after the gateway's chain and the client's reversal
}

// corpus is the seeded input set of one run plus its reference outputs,
// computed by calling the services directly (never through the runtime
// under test).
type corpus struct {
	sp    *spec
	seed  int64
	items []item
	pad   []byte
}

var (
	typeText = services.TypePlainText
	typeGIF  = mime.MustParse("image/gif")
)

// buildCorpus derives every input from seed: the same seed gives the same
// bytes, a different seed different bytes of the same shape.
func buildCorpus(sp *spec, seed int64) (*corpus, error) {
	c := &corpus{sp: sp, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	// Incompressible, and larger than the front-end's 4 KiB write buffer
	// even after text/compress, so one pad pushes everything before it out.
	c.pad = make([]byte, padBytes)
	rng.Read(c.pad)

	if sp.relay {
		c.items = make([]item, sp.corpusSize)
		for i := range c.items {
			body := make([]byte, sp.bodyBytes)
			rng.Read(body)
			it := item{ctype: typeText, body: body, want: body}
			if i%2 == 1 {
				it.ctype, it.image = typeGIF, true
			}
			c.items[i] = it
		}
		return c, c.check()
	}

	ds, tj := &services.DownSampler{}, &services.Transcoder{}
	// webaccel.mcl declares param-quality = 4 on gif2jpeg.
	if err := tj.SetParam("quality", "4"); err != nil {
		return nil, err
	}
	for i := 0; i < sp.corpusSize; i++ {
		// services.MixedWorkload's mix (half images, 2–10 KiB text) with
		// images of 32–64 px instead of 64–127: see maxInFlightBytes.
		var m *mime.Message
		if rng.Float64() < 0.5 {
			side := 32 + rng.Intn(33)
			m = services.GenImageMessage(side, side, seed+int64(i))
		} else {
			m = services.GenTextMessage(2048+rng.Intn(8192), seed+int64(i))
		}
		it := item{ctype: m.ContentType(), body: m.Body()}
		if it.ctype.Type == "image" {
			it.image = true
			ref := mime.NewMessage(it.ctype, it.body)
			for _, p := range []streamlet.Processor{ds, tj} {
				out, err := p.Process(streamlet.Input{Port: "pi", Msg: ref})
				if err != nil {
					return nil, fmt.Errorf("reference computation: %w", err)
				}
				ref = out[0].Msg
			}
			it.want = ref.Body()
		} else {
			// text/compress at the gateway, text/decompress at the client.
			it.want = it.body
		}
		c.items = append(c.items, it)
	}
	return c, c.check()
}

// check refuses a corpus that could fill a channel: see maxInFlightBytes.
func (c *corpus) check() error {
	largest := 0
	for i := range c.items {
		if n := len(c.items[i].body); n > largest {
			largest = n
		}
	}
	if worst := c.sp.window*largest + maxPadsInFlight*padBytes; worst > maxInFlightBytes {
		return fmt.Errorf("%s: %d messages of up to %d B and %d pads can put %d B in flight on one connection; a default channel holds %d",
			c.sp.name, c.sp.window, largest, maxPadsInFlight, worst, maxInFlightBytes)
	}
	return nil
}

func (c *corpus) item(id int64) *item { return &c.items[id%int64(len(c.items))] }

// build makes origin message id. The body slice is shared, not copied: the
// gateway passes bodies by reference and no service on these chains writes
// into its input.
func (c *corpus) build(id int64) *mime.Message {
	it := c.item(id)
	m := mime.NewMessage(it.ctype, it.body)
	m.SetHeader(headerBenchID, strconv.FormatInt(id, 10))
	return m
}

func (c *corpus) buildPad() *mime.Message {
	m := mime.NewMessage(typeText, c.pad)
	m.SetHeader(headerBenchPad, "1")
	return m
}

// verify checks a delivered, client-processed message against the reference.
// direct is the harness self-cost run, where no gateway touched the message.
func (c *corpus) verify(m *mime.Message, id int64, direct bool) error {
	it := c.item(id)
	want := it.want
	if direct {
		want = it.body
	}
	if !bytes.Equal(m.Body(), want) {
		return fmt.Errorf("message %d: body differs from reference (%d bytes, want %d)", id, m.Len(), len(want))
	}
	if direct {
		return nil
	}
	src := "pi2"
	if it.image {
		src = "pi1"
	}
	if got := m.Header("X-Part-Source"); got != src {
		return fmt.Errorf("message %d: merged from %q, want %q", id, got, src)
	}
	if c.sp.relay {
		hops := m.Header(headerHops)
		// One redirector on the image branch; two on the text branch, three
		// while the LOW_BANDWIDTH splice is in.
		if ok := (it.image && hops == "1") || (!it.image && (hops == "2" || hops == "3")); !ok {
			return fmt.Errorf("message %d: %s=%q on the %s branch", id, headerHops, hops, src)
		}
	}
	return nil
}

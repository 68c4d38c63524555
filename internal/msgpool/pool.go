// Package msgpool implements MobiGATE's centralized message storage (§6.7):
// incoming messages are copied into a message pool once, and streamlets
// exchange message identifiers rather than message bodies. Passing by
// reference avoids the copying latency and memory pressure that Figure 7-3
// measures against the naive pass-by-value scheme, which this package also
// implements so the comparison can be reproduced.
//
// The pool is sharded by message-ID hash: every session in the gateway
// funnels its Put/Get/Remove traffic through here, and a single map mutex
// would serialize the whole coordination plane. With power-of-two shards and
// per-shard locks, unrelated messages contend only 1/numShards of the time.
package msgpool

import (
	"fmt"
	"sync"

	"mobigate/internal/mime"
	"mobigate/internal/obs"
)

// Gateway-wide pool metrics (aggregated across pools).
var (
	mPutTotal  = obs.DefaultCounter(obs.MPoolPutTotal)
	mHitTotal  = obs.DefaultCounter(obs.MPoolHitTotal)
	mMissTotal = obs.DefaultCounter(obs.MPoolMissTotal)
	mCopyTotal = obs.DefaultCounter(obs.MPoolCopyTotal)
	mMessages  = obs.DefaultIntGauge(obs.MPoolMessages)
	mBytes     = obs.DefaultIntGauge(obs.MPoolBytes)
)

// Mode selects the buffer-management scheme.
type Mode int

const (
	// ByReference stores each message once; Forward hands the same
	// identifier to the next streamlet (the MobiGATE scheme).
	ByReference Mode = iota
	// ByValue deep-copies the message on every Forward, modelling the
	// per-hop copying cost of value passing (the Figure 7-3 baseline).
	ByValue
)

func (m Mode) String() string {
	if m == ByValue {
		return "by-value"
	}
	return "by-reference"
}

// numShards is the shard count; must be a power of two so shard selection
// is a mask, not a modulo.
const numShards = 16

// shard is one lock domain of the pool.
type shard struct {
	mu   sync.RWMutex
	msgs map[string]*mime.Message
	// sizes records the body length counted for each entry, so accounting
	// stays correct even when a caller mutates a stored message in place
	// and re-registers it via Replace.
	sizes map[string]int
	bytes int64
	_     [24]byte // pad toward a cache line to limit false sharing
}

// Pool is a message pool. It is safe for concurrent use.
type Pool struct {
	mode   Mode
	shards [numShards]shard
}

// New creates an empty pool operating in the given mode.
func New(mode Mode) *Pool {
	p := &Pool{mode: mode}
	for i := range p.shards {
		p.shards[i].msgs = make(map[string]*mime.Message)
		p.shards[i].sizes = make(map[string]int)
	}
	return p
}

// Mode returns the pool's buffer-management scheme.
func (p *Pool) Mode() Mode { return p.mode }

// shardIndex hashes a message identifier (FNV-1a; IDs are short fixed-width
// strings, so this is a handful of multiplies) onto a shard slot.
func shardIndex(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

func (p *Pool) shardFor(id string) *shard { return &p.shards[shardIndex(id)] }

// putLocked stores m in s; the caller holds s.mu.
func (s *shard) putLocked(m *mime.Message) {
	prev, exists := s.sizes[m.ID]
	if exists {
		s.bytes -= int64(prev)
	} else {
		mMessages.Add(1)
	}
	s.msgs[m.ID] = m
	s.sizes[m.ID] = m.Len()
	s.bytes += int64(m.Len())
	mPutTotal.Inc()
	mBytes.Add(int64(m.Len() - prev))
}

// removeLocked deletes id from s if present; the caller holds s.mu.
func (s *shard) removeLocked(id string) (m *mime.Message, ok bool) {
	m, ok = s.msgs[id]
	if ok {
		s.bytes -= int64(s.sizes[id])
		mMessages.Add(-1)
		mBytes.Add(-int64(s.sizes[id]))
		delete(s.msgs, id)
		delete(s.sizes, id)
	}
	return m, ok
}

// Put stores a message and returns its identifier.
func (p *Pool) Put(m *mime.Message) string {
	s := p.shardFor(m.ID)
	s.mu.Lock()
	s.putLocked(m)
	s.mu.Unlock()
	return m.ID
}

// Get returns the message with the given identifier, or an error when the
// identifier is unknown (e.g. the message was dropped by a full queue and
// removed).
func (p *Pool) Get(id string) (*mime.Message, error) {
	s := p.shardFor(id)
	s.mu.RLock()
	m := s.msgs[id]
	s.mu.RUnlock()
	if m == nil {
		mMissTotal.Inc()
		return nil, fmt.Errorf("msgpool: unknown message %q", id)
	}
	mHitTotal.Inc()
	return m, nil
}

// Forward prepares a message for handing to the next streamlet and returns
// the identifier to enqueue. By reference this is the identity; by value
// the message is deep-copied and the copy stored under a fresh identifier.
//
// The clone-and-store is atomic with respect to the source entry: a
// concurrent Remove(id) either happens before (Forward fails, no copy is
// stored) or after (the copy is stored from the then-live message). The old
// Get-then-Put sequence could store a copy of a message that had already
// been removed between the two lock acquisitions.
func (p *Pool) Forward(id string) (string, error) {
	if p.mode == ByReference {
		return id, nil
	}
	src := p.shardFor(id)
	for {
		src.mu.Lock()
		m := src.msgs[id]
		if m == nil {
			src.mu.Unlock()
			mMissTotal.Inc()
			return "", fmt.Errorf("msgpool: unknown message %q", id)
		}
		c := m.Clone()
		dst := p.shardFor(c.ID)
		if dst == src {
			src.putLocked(c)
			src.mu.Unlock()
			mCopyTotal.Inc()
			return c.ID, nil
		}
		if shardIndex(c.ID) > shardIndex(id) {
			// Lock order: ascending shard index, so two concurrent Forwards
			// can never hold each other's shards crosswise.
			dst.mu.Lock()
			dst.putLocked(c)
			dst.mu.Unlock()
			src.mu.Unlock()
			mCopyTotal.Inc()
			return c.ID, nil
		}
		// The destination shard orders before the source: drop the source
		// lock, take both in order, and verify the source entry is still the
		// message we cloned. If it was removed or replaced meanwhile, the
		// speculative clone is discarded (its pooled body recycled) and the
		// operation re-evaluated.
		src.mu.Unlock()
		dst.mu.Lock()
		src.mu.Lock()
		if src.msgs[id] == m {
			dst.putLocked(c)
			src.mu.Unlock()
			dst.mu.Unlock()
			mCopyTotal.Inc()
			return c.ID, nil
		}
		src.mu.Unlock()
		dst.mu.Unlock()
		c.Recycle()
	}
}

// Remove deletes a message from the pool (after final delivery, or when a
// queue dropped it). Unknown identifiers are ignored.
func (p *Pool) Remove(id string) {
	s := p.shardFor(id)
	s.mu.Lock()
	s.removeLocked(id)
	s.mu.Unlock()
}

// Take removes and returns the message stored under id (nil when unknown).
// The coordination plane uses it where it owns the message's afterlife —
// e.g. recycling the body of a by-value original once its copy has been
// forwarded.
func (p *Pool) Take(id string) *mime.Message {
	s := p.shardFor(id)
	s.mu.Lock()
	m, _ := s.removeLocked(id)
	s.mu.Unlock()
	return m
}

// Len returns the number of pooled messages.
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		p.shards[i].mu.RLock()
		n += len(p.shards[i].msgs)
		p.shards[i].mu.RUnlock()
	}
	return n
}

// Bytes returns the total body bytes held by the pool.
func (p *Pool) Bytes() int64 {
	var n int64
	for i := range p.shards {
		p.shards[i].mu.RLock()
		n += p.shards[i].bytes
		p.shards[i].mu.RUnlock()
	}
	return n
}

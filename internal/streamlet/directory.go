package streamlet

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a fresh Processor instance for a library name.
type Factory func() Processor

// Directory is the Streamlet Directory of §3.3.7: the repository where
// streamlet providers advertise their services, keyed by the library
// attribute of the streamlet declaration (e.g. "general/switch"). The
// Streamlet Manager looks libraries up here to create instances. Composite
// streamlets (library "mcl:stream") are resolved by the stream runtime,
// not by this directory.
type Directory struct {
	mu        sync.RWMutex
	factories map[string]Factory
	traits    map[string]Traits
}

// Traits are per-library execution-plane capability annotations a provider
// advertises alongside its factory. The coordination plane uses them to
// decide what it may legally do with instances of the library: fan Process
// calls out across workers, memoize results, or pool instances.
type Traits struct {
	// Parallelizable marks a library whose Process is a pure per-message
	// function of its input (no cross-message state, no order sensitivity),
	// so the runtime may run N calls concurrently behind a resequencer.
	Parallelizable bool
	// PoolPreferred marks a library whose instance construction is expensive
	// enough that §3.3.4 instance pooling pays for its own overhead; the
	// Streamlet Manager pools only these by default.
	PoolPreferred bool
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		factories: make(map[string]Factory),
		traits:    make(map[string]Traits),
	}
}

// Register advertises a library implementation. Re-registering a library
// replaces the previous factory (a provider shipping an update).
func (d *Directory) Register(library string, f Factory) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.factories[library] = f
}

// SetTraits records a library's capability annotations. Traits for an
// unregistered library are kept (registration order is not significant).
func (d *Directory) SetTraits(library string, t Traits) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.traits[library] = t
}

// Traits returns a library's capability annotations (the zero value when
// none were advertised — the conservative default: serial, impure,
// unpooled).
func (d *Directory) Traits(library string) Traits {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.traits[library]
}

// Lookup returns the factory for a library.
func (d *Directory) Lookup(library string) (Factory, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.factories[library]
	if !ok {
		return nil, fmt.Errorf("streamlet: library %q not found in directory", library)
	}
	return f, nil
}

// Libraries lists registered library names, sorted.
func (d *Directory) Libraries() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.factories))
	for lib := range d.factories {
		out = append(out, lib)
	}
	sort.Strings(out)
	return out
}

// ProcessorPool implements streamlet pooling (§3.3.4): stateless processors
// are never bound to a specific stream, so a small number of instances can
// be reused across requests instead of being created and destroyed per
// stream. The pool is bounded; Get falls back to the factory when empty.
type ProcessorPool struct {
	factory Factory
	free    chan Processor

	created atomic64
	reused  atomic64
}

// atomic64 is a tiny counter wrapper to keep the struct comparable fields
// grouped (sync/atomic's Uint64 is not copyable, which is what we want).
type atomic64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomic64) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomic64) get() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// NewProcessorPool creates a pool of at most size pooled instances.
func NewProcessorPool(factory Factory, size int) *ProcessorPool {
	if size <= 0 {
		size = 8
	}
	return &ProcessorPool{factory: factory, free: make(chan Processor, size)}
}

// Get returns a pooled instance or creates one.
func (p *ProcessorPool) Get() Processor {
	select {
	case proc := <-p.free:
		p.reused.inc()
		return proc
	default:
		p.created.inc()
		return p.factory()
	}
}

// Put returns an instance to the pool; surplus instances are discarded for
// the garbage collector.
func (p *ProcessorPool) Put(proc Processor) {
	if proc == nil {
		return
	}
	select {
	case p.free <- proc:
	default:
	}
}

// Stats returns how many instances were created fresh vs reused.
func (p *ProcessorPool) Stats() (created, reused uint64) {
	return p.created.get(), p.reused.get()
}

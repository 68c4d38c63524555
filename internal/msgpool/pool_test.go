package msgpool

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mobigate/internal/mime"
)

func msg(body string) *mime.Message {
	return mime.NewMessage(mime.MustParse("text/plain"), []byte(body))
}

func TestPutGetRemove(t *testing.T) {
	p := New(ByReference)
	m := msg("hello")
	id := p.Put(m)
	if id != m.ID {
		t.Errorf("Put returned %q", id)
	}
	got, err := p.Get(id)
	if err != nil || got != m {
		t.Errorf("Get = %v, %v", got, err)
	}
	if p.Len() != 1 || p.Bytes() != 5 {
		t.Errorf("Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
	p.Remove(id)
	if _, err := p.Get(id); err == nil {
		t.Error("Get after Remove succeeded")
	}
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Errorf("after remove: Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
	p.Remove("ghost") // no panic
}

func TestPutIdempotentAccounting(t *testing.T) {
	p := New(ByReference)
	m := msg("abcd")
	p.Put(m)
	p.Put(m) // same message twice must not double-count
	if p.Bytes() != 4 || p.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d", p.Bytes(), p.Len())
	}
}

func TestForwardByReference(t *testing.T) {
	p := New(ByReference)
	m := msg("shared")
	id := p.Put(m)
	fid, err := p.Forward(id)
	if err != nil || fid != id {
		t.Errorf("Forward = %q, %v", fid, err)
	}
	if p.Len() != 1 {
		t.Errorf("by-ref forward grew pool to %d", p.Len())
	}
}

func TestForwardByValue(t *testing.T) {
	p := New(ByValue)
	m := msg("copy me")
	id := p.Put(m)
	fid, err := p.Forward(id)
	if err != nil {
		t.Fatal(err)
	}
	if fid == id {
		t.Error("by-value forward returned same id")
	}
	c, err := p.Get(fid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Body(), m.Body()) {
		t.Error("copy corrupted")
	}
	c.Body()[0] = 'X'
	if m.Body()[0] == 'X' {
		t.Error("by-value copy aliases original")
	}
	if p.Len() != 2 {
		t.Errorf("pool len = %d", p.Len())
	}
}

func TestForwardUnknown(t *testing.T) {
	p := New(ByValue)
	if _, err := p.Forward("nope"); err == nil {
		t.Error("forward unknown succeeded")
	}
	if _, err := New(ByReference).Get("nope"); err == nil {
		t.Error("get unknown succeeded")
	}
}

func TestModeString(t *testing.T) {
	if ByReference.String() != "by-reference" || ByValue.String() != "by-value" {
		t.Error("mode strings")
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(ByValue)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m := msg(fmt.Sprintf("g%d-i%d", g, i))
				id := p.Put(m)
				fid, err := p.Forward(id)
				if err != nil {
					t.Errorf("forward: %v", err)
					return
				}
				p.Remove(fid)
				p.Remove(id)
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Errorf("leaked: Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
}

func TestTake(t *testing.T) {
	p := New(ByReference)
	m := msg("owned")
	id := p.Put(m)
	if got := p.Take(id); got != m {
		t.Errorf("Take = %v", got)
	}
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Errorf("after Take: Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
	if got := p.Take(id); got != nil {
		t.Errorf("second Take = %v", got)
	}
}

// A by-value Forward racing a Remove of its source must be atomic: either
// the Forward loses (error, nothing stored) or it wins (the copy is made
// from the then-live message). The pre-shard implementation could interleave
// its Get and Put around a Remove and resurrect a dead message as a stored
// copy, which this test would catch as a leaked entry.
func TestForwardAtomicWithRemove(t *testing.T) {
	p := New(ByValue)
	for i := 0; i < 2000; i++ {
		m := msg(fmt.Sprintf("race-%d", i))
		id := p.Put(m)
		var fid string
		var ferr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			fid, ferr = p.Forward(id)
		}()
		go func() {
			defer wg.Done()
			p.Remove(id)
		}()
		wg.Wait()
		if ferr == nil {
			// Forward won: the copy exists and was taken from a live source.
			c, err := p.Get(fid)
			if err != nil {
				t.Fatalf("iter %d: forwarded copy missing: %v", i, err)
			}
			if !bytes.Equal(c.Body(), []byte(fmt.Sprintf("race-%d", i))) {
				t.Fatalf("iter %d: copy body corrupted", i)
			}
			p.Remove(fid)
		}
		p.Remove(id) // no-op when Remove already won
		if n := p.Len(); n != 0 {
			t.Fatalf("iter %d: %d entries leaked (copy of removed message stored?)", i, n)
		}
	}
	if p.Bytes() != 0 {
		t.Errorf("byte accounting drifted: %d", p.Bytes())
	}
}

// Concurrent cross-shard Forwards of the same source exercise the ordered
// two-lock path and its retry loop; accounting must balance afterwards.
func TestForwardConcurrentSameSource(t *testing.T) {
	p := New(ByValue)
	m := msg("fan-out body that is long enough to notice corruption")
	id := p.Put(m)
	const workers = 8
	var wg sync.WaitGroup
	ids := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fid, err := p.Forward(id)
				if err != nil {
					t.Errorf("forward: %v", err)
					return
				}
				ids[w] = append(ids[w], fid)
			}
		}(w)
	}
	wg.Wait()
	want := workers*200 + 1
	if p.Len() != want {
		t.Errorf("Len = %d, want %d", p.Len(), want)
	}
	for _, batch := range ids {
		for _, fid := range batch {
			c, err := p.Get(fid)
			if err != nil || !bytes.Equal(c.Body(), m.Body()) {
				t.Fatalf("copy %s bad: %v", fid, err)
			}
			p.Remove(fid)
		}
	}
	p.Remove(id)
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Errorf("leaked: Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
}

package queue

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mobigate/internal/mcl"
)

func batchEntries(prefix string, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{MsgID: fmt.Sprintf("%s-%03d", prefix, i), Size: 8}
	}
	return es
}

func TestPostNFetchNFIFO(t *testing.T) {
	q := asyncQueue(1 << 20)
	posted, failed, err := q.PostN(batchEntries("a", 10), nil)
	if err != nil || posted != 10 || len(failed) != 0 {
		t.Fatalf("PostN = (%d, %v, %v)", posted, failed, err)
	}
	dst := make([]Item, 4)
	var got []string
	for len(got) < 10 {
		n := q.FetchN(dst, nil)
		if n == 0 {
			t.Fatal("FetchN returned 0 on a non-empty queue")
		}
		for _, it := range dst[:n] {
			got = append(got, it.MsgID)
		}
		q.AckN(n)
	}
	for i, id := range got {
		if want := fmt.Sprintf("a-%03d", i); id != want {
			t.Errorf("position %d = %s, want %s", i, id, want)
		}
	}
	if q.Len() != 0 || q.QueuedBytes() != 0 {
		t.Errorf("drained queue reports Len=%d Bytes=%d", q.Len(), q.QueuedBytes())
	}
	if q.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after AckN", q.Outstanding())
	}
}

func TestPostNPartialDropWhenFull(t *testing.T) {
	// Capacity admits 3 eight-byte entries; the rest must drop after the
	// grace timeout, reported by index with ErrDropped.
	q := New("partial", Options{CapacityBytes: 24, DropTimeout: 2 * time.Millisecond})
	posted, failed, err := q.PostN(batchEntries("b", 5), nil)
	if err != ErrDropped {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if posted != 3 || len(failed) != 2 {
		t.Fatalf("posted = %d, failed = %v", posted, failed)
	}
	if failed[0] != 3 || failed[1] != 4 {
		t.Errorf("failed indices = %v, want [3 4]", failed)
	}
	// The accepted prefix is intact and in order.
	dst := make([]Item, 8)
	if n := q.TryFetchN(dst); n != 3 || dst[0].MsgID != "b-000" || dst[2].MsgID != "b-002" {
		t.Errorf("residual = %v (n=%d)", dst[:n], n)
	}
}

func TestFetchNBlocksUntilPostN(t *testing.T) {
	q := asyncQueue(1 << 20)
	res := make(chan []Item, 1)
	go func() {
		dst := make([]Item, 8)
		n := q.FetchN(dst, nil)
		res <- append([]Item(nil), dst[:n]...)
	}()
	time.Sleep(5 * time.Millisecond) // let the consumer block
	if _, _, err := q.PostN(batchEntries("c", 3), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case items := <-res:
		// The consumer takes whatever is available when it wakes — at
		// least one, never more than was posted.
		if len(items) == 0 || len(items) > 3 {
			t.Fatalf("woke with %d items", len(items))
		}
		if items[0].MsgID != "c-000" {
			t.Errorf("first item = %s", items[0].MsgID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FetchN did not wake")
	}
}

func TestFetchNCanceledByStop(t *testing.T) {
	q := asyncQueue(1 << 20)
	stop := make(chan struct{})
	time.AfterFunc(2*time.Millisecond, func() { close(stop) })
	dst := make([]Item, 4)
	if n := q.FetchN(dst, stop); n != 0 {
		t.Fatalf("canceled FetchN returned %d items", n)
	}
}

func TestPostNSyncRendezvous(t *testing.T) {
	q := New("sync", Options{Mode: mcl.Sync, DropTimeout: 50 * time.Millisecond})
	got := make(chan string, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := make([]Item, 4)
		for fetched := 0; fetched < 3; {
			n := q.FetchN(dst, nil)
			for _, it := range dst[:n] {
				got <- it.MsgID
			}
			fetched += n
		}
	}()
	posted, failed, err := q.PostN(batchEntries("s", 3), nil)
	if err != nil || posted != 3 || len(failed) != 0 {
		t.Fatalf("sync PostN = (%d, %v, %v)", posted, failed, err)
	}
	wg.Wait()
	close(got)
	i := 0
	for id := range got {
		if want := fmt.Sprintf("s-%03d", i); id != want {
			t.Errorf("rendezvous position %d = %s, want %s", i, id, want)
		}
		i++
	}
}

func TestPostNClosedQueue(t *testing.T) {
	q := asyncQueue(1 << 20)
	q.Close()
	posted, failed, err := q.PostN(batchEntries("d", 4), nil)
	if err != ErrClosed || posted != 0 || len(failed) != 4 {
		t.Errorf("PostN on closed = (%d, %v, %v), want (0, all, ErrClosed)", posted, failed, err)
	}
}

// TestFetchNSteadyStateAllocFree is the batch analogue of the single-item
// zero-alloc gate: one PostN + FetchN + AckN round trip must not allocate
// once the ring and the caller's buffers are warm.
func TestFetchNSteadyStateAllocFree(t *testing.T) {
	q := asyncQueue(1 << 20)
	const batch = 16
	entries := batchEntries("warm-steady-state-msg", batch)
	dst := make([]Item, batch)
	// Warm the ring past its growth phase.
	for i := 0; i < 8; i++ {
		q.PostN(entries, nil)
		for drained := 0; drained < batch; {
			drained += q.TryFetchN(dst)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		posted, failed, err := q.PostN(entries, nil)
		if err != nil || posted != batch || failed != nil {
			t.Fatalf("PostN = (%d, %v, %v)", posted, failed, err)
		}
		if n := q.FetchN(dst, nil); n != batch {
			t.Fatalf("FetchN = %d", n)
		}
		q.AckN(batch)
	})
	if allocs != 0 {
		t.Errorf("steady-state PostN/FetchN allocates %.1f objects per op, want 0", allocs)
	}
}

// TestBatchedRandomizedStress mixes the batch operations with the
// single-item ones under -race: concurrent Post/PostN producers against
// Fetch/FetchN/TryFetchN consumers, with a mid-run Close, asserting message
// conservation, exactly-once delivery, per-consumer per-producer FIFO, and
// goroutine-leak freedom.
func TestBatchedRandomizedStress(t *testing.T) {
	before := runtime.NumGoroutine()
	for seed := int64(0); seed < 4; seed++ {
		for _, mode := range []mcl.ChannelMode{mcl.Async, mcl.Sync} {
			batchStressRun(t, seed, mode)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func batchStressRun(t *testing.T, seed int64, mode mcl.ChannelMode) {
	t.Helper()
	opts := Options{Mode: mode, Category: mcl.CatBB, DropTimeout: time.Millisecond}
	if mode == mcl.Async {
		opts.CapacityBytes = 256 // small: exercise the full/wait/drop path
	}
	q := New(fmt.Sprintf("bstress-%d", seed), opts)

	const producers, consumers, opsPerWorker = 4, 3, 60

	// Each consumer records what it fetched privately, in its own fetch
	// order. A log shared across consumers would be appended outside the
	// queue lock, so its order would not be fetch order.
	fetched := make([][]string, consumers)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(p)))
			seqNo := 0
			for i := 0; i < opsPerWorker; i++ {
				var stop chan struct{}
				if rng.Intn(4) == 0 {
					stop = make(chan struct{})
					time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond,
						func() { close(stop) })
				}
				if rng.Intn(2) == 0 {
					n := 1 + rng.Intn(8)
					es := make([]Entry, n)
					for j := range es {
						es[j] = Entry{MsgID: fmt.Sprintf("p%d-%06d", p, seqNo+j), Size: 1 + rng.Intn(32)}
					}
					seqNo += n
					q.PostN(es, stop)
				} else {
					q.Post(fmt.Sprintf("p%d-%06d", p, seqNo), 1+rng.Intn(32), stop)
					seqNo++
				}
			}
		}(p)
	}

	for cn := 0; cn < consumers; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*37 + int64(cn)))
			dst := make([]Item, 8)
			record := func(items []Item) {
				for _, it := range items {
					fetched[cn] = append(fetched[cn], it.MsgID)
				}
			}
			for {
				switch rng.Intn(4) {
				case 0:
					if n := q.TryFetchN(dst); n > 0 {
						record(dst[:n])
						q.AckN(n)
					} else if q.Closed() {
						return
					}
				case 1:
					stop := make(chan struct{})
					time.AfterFunc(time.Duration(rng.Intn(500))*time.Microsecond,
						func() { close(stop) })
					if n := q.FetchN(dst, stop); n > 0 {
						record(dst[:n])
						q.AckN(n)
					} else if q.Closed() && q.Empty() {
						return
					}
				case 2:
					if it, ok := q.Fetch(nil); ok {
						record([]Item{it})
						q.Ack()
					} else {
						return // closed and drained
					}
				default:
					if n := q.FetchN(dst, nil); n > 0 {
						record(dst[:n])
						q.AckN(n)
					} else {
						return // closed and drained
					}
				}
			}
		}(cn)
	}

	time.AfterFunc(time.Duration(2+seed)*time.Millisecond, q.Close)
	wg.Wait()

	residual := int64(0)
	dst := make([]Item, 16)
	for {
		n := q.TryFetchN(dst)
		if n == 0 {
			break
		}
		residual += int64(n)
	}

	// Conservation: everything the queue accepted is fetched exactly once
	// or residual.
	seen := map[string]bool{}
	for _, ids := range fetched {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("seed %d %v: %s fetched twice", seed, mode, id)
			}
			seen[id] = true
		}
	}
	posted, _, _ := q.Stats()
	if int64(posted) != int64(len(seen))+residual {
		t.Errorf("seed %d %v: conservation broken: accepted %d != fetched %d + residual %d",
			seed, mode, posted, len(seen), residual)
	}
	if q.Len() != 0 || q.QueuedBytes() != 0 {
		t.Errorf("seed %d %v: drained queue reports Len=%d Bytes=%d", seed, mode, q.Len(), q.QueuedBytes())
	}

	// FIFO: each producer posts strictly increasing sequence numbers from a
	// single goroutine, so what one consumer fetched, projected onto one
	// producer, must be strictly increasing too (drops may skip numbers,
	// never reorder).
	for cn, ids := range fetched {
		last := map[string]string{}
		for _, id := range ids {
			p := id[:2] // "pN"
			if prev, ok := last[p]; ok && id <= prev {
				t.Fatalf("seed %d %v: consumer %d saw producer %s reordered: %s after %s", seed, mode, cn, p, id, prev)
			}
			last[p] = id
		}
	}
}

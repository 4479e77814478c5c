package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResults(t *testing.T) {
	pool, err := NewPool(0, 8, func() (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(pool, items, func(_ int, it int) (int, error) {
		return it * it, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9, 2, 6}
	run := func(workers int) []int {
		pool, err := NewPool(0, workers, func() (int, error) { return 0, nil })
		if err != nil {
			t.Fatal(err)
		}
		out, err := Map(pool, items, func(_ int, it int) (int, error) {
			return it + 10, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel diverged at %d: %d vs %d", i, par[i], seq[i])
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	pool, err := NewPool(0, 8, func() (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	// Items 7 and 23 fail; the reported error must be item 7's — the one
	// sequential execution stops at.
	out, err := Map(pool, items, func(_ int, it int) (int, error) {
		if it == 7 || it == 23 {
			return 0, fmt.Errorf("item %d failed", it)
		}
		return it, nil
	})
	if out != nil {
		t.Fatal("expected nil results on error")
	}
	if err == nil || err.Error() != "item 7 failed" {
		t.Fatalf("got error %v, want item 7's", err)
	}
}

func TestMapDistributesAcrossReplicas(t *testing.T) {
	var next atomic.Int64
	pool, err := NewPool(int(next.Add(1)), 4, func() (int, error) { return int(next.Add(1)), nil })
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	twoSeen := make(chan struct{})
	closed := false
	items := make([]int, 16)
	// Each call blocks until two distinct replicas have checked in. A
	// single replica cannot drain the items alone (its first call blocks),
	// so another worker must claim work, unblocking everyone.
	_, err = Map(pool, items, func(rep int, _ int) (int, error) {
		mu.Lock()
		seen[rep] = true
		if len(seen) >= 2 && !closed {
			closed = true
			close(twoSeen)
		}
		mu.Unlock()
		<-twoSeen
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("work never spread beyond one replica: %v", seen)
	}
}

func TestNewPoolReplicateError(t *testing.T) {
	boom := errors.New("no replica")
	if _, err := NewPool(0, 3, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want replicate error", err)
	}
}

func TestStoreComputesOnce(t *testing.T) {
	s := NewStore[string, int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreCachesErrors(t *testing.T) {
	s := NewStore[int, string]()
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := s.Do(1, func() (string, error) {
			calls++
			return "", boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: got %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute reran %d times; errors must be cached", calls)
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore[int, int]()
	if _, err := s.Do(1, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	v, err := s.Do(1, func() (int, error) { return 8, nil })
	if err != nil || v != 8 {
		t.Fatalf("post-reset Do = %d, %v; want recompute", v, err)
	}
}

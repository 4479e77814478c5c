package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeLoadSmoke fires 96 concurrent clients with mixed estimate/sweep
// traffic and asserts that every response is 200 and the drain is clean —
// the in-process version of CI's load-smoke job.
func TestServeLoadSmoke(t *testing.T) {
	s, err := New(Config{Zoo: testSet(t, testModels()), CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Mux())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const clients = 96
	const perClient = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				route, body := "/estimate", estBody(c%24)
				if (c+r)%3 == 0 {
					route, body = "/sweep", sweepBody(c%8)
				}
				resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d, want 200", c, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()

	// Clean shutdown: drain must finish promptly once load stops.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
	s.Close()
}

// BenchmarkServeMixedLoad is the load client CI's load-smoke job runs: ≥64
// concurrent clients of mixed estimate/sweep traffic. Any status but 200
// fails it.
func BenchmarkServeMixedLoad(b *testing.B) {
	s, err := New(Config{Zoo: testSet(b, testModels()), CacheSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Mux())
	defer func() {
		ts.Close()
		s.Close()
	}()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	b.ReportAllocs()

	// GOMAXPROCS x SetParallelism goroutines; 16x oversubscription clears
	// 64 concurrent clients on any runner with >=4 procs.
	b.SetParallelism(16)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			route, body := "/estimate", estBody(i%32)
			if i%3 == 0 {
				route, body = "/sweep", sweepBody(i%8)
			}
			resp, err := client.Post(ts.URL+route, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			// Read the body to the end so the transport reuses the
			// connection; otherwise every request pays a TCP setup.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"accelwattch/internal/tune"
)

// TestServingDeterminism is the acceptance gate for the serving layer: at
// every client concurrency, with the cache on or off, under mixed load,
// each response body must be bit-identical to the single-shot evaluation
// path (the computation awvalidate performs). Run under -race in CI.
func TestServingDeterminism(t *testing.T) {
	// A fixed mixed workload: 24 distinct estimates across variants and
	// operating points, plus 8 distinct sweeps. Repeats below drive cache
	// hits and concurrent identical misses.
	type wire struct {
		route string
		body  []byte
		want  []byte // single-shot reference bytes
	}
	model := testModel()
	var fixed []wire
	for i := 0; i < 24; i++ {
		variant := tune.Variants()[i%int(tune.NumVariants)].String()
		body := fmt.Appendf(nil,
			`{"name":"d%d","variant":%q,"cycles":%d,"clock_mhz":%d,"active_sms":%d,"avg_lanes":%d,"mix":"INT_FP_DP","counts":{"alu":%d,"fpu":%d,"dram_mc":%d}}`,
			i, variant, 1000000+i, 900+10*i, 1+i*3, 1+i, 100000000*(i+1), 50000000*(i+1), 10000000*(i+1))
		want, err := EstimateOnce(model, body)
		if err != nil {
			t.Fatalf("reference estimate %d: %v", i, err)
		}
		fixed = append(fixed, wire{"/estimate", body, want})
	}
	for i := 0; i < 8; i++ {
		variant := tune.Variants()[i%int(tune.NumVariants)].String()
		body := fmt.Appendf(nil,
			`{"name":"ds%d","variant":%q,"cycles":2000000,"active_sms":80,"avg_lanes":32,"counts":{"l2_noc":%d},"min_mhz":%d,"max_mhz":1380,"step_mhz":60}`,
			i, variant, 30000000*(i+1), 780+60*i)
		want, err := SweepOnce(model, body)
		if err != nil {
			t.Fatalf("reference sweep %d: %v", i, err)
		}
		fixed = append(fixed, wire{"/sweep", body, want})
	}

	// workers is the number of client goroutines that send the load. The
	// three requests for a body are queued next to each other: one worker
	// sends them one after another, so with the cache on the second and
	// third are hits; eight keep identical misses in flight together; one
	// worker per request puts all 96 on the server at once.
	const rounds = 3
	for _, workers := range []int{1, 8, rounds * len(fixed)} {
		for _, cacheSize := range []int{0, 128} {
			t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize), func(t *testing.T) {
				_, ts := newTestServer(t, Config{CacheSize: cacheSize})
				errs := make(chan error, rounds*len(fixed))
				sendAll(workers, rounds*len(fixed), func(k int) {
					i, r := k/rounds, k%rounds
					w := fixed[i]
					resp, err := http.Post(ts.URL+w.route, "application/json", bytes.NewReader(w.body))
					if err != nil {
						errs <- fmt.Errorf("round %d req %d: %v", r, i, err)
						return
					}
					defer resp.Body.Close()
					var got bytes.Buffer
					if _, err := got.ReadFrom(resp.Body); err != nil {
						errs <- fmt.Errorf("round %d req %d read: %v", r, i, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("round %d req %d: status %d: %s", r, i, resp.StatusCode, got.String())
						return
					}
					if !bytes.Equal(got.Bytes(), w.want) {
						errs <- fmt.Errorf("round %d req %d (%s): served body differs from single-shot path\n got %s\nwant %s",
							r, i, w.route, got.String(), w.want)
					}
				})
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// sendAll calls do(k) for every k in [0, n), in order of k, from workers
// goroutines, and returns when every call has returned.
func sendAll(workers, n int, do func(k int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				do(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}

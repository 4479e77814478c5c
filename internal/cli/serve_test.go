package cli

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"accelwattch/internal/obs"
)

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// answers reports whether addr serves GET / with 200 "ok".
func answers(addr string) bool {
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + addr + "/")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return err == nil && resp.StatusCode == http.StatusOK && string(b) == "ok"
}

var okHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })

// startTestRun starts a run whose three artifacts go to a temporary
// directory, returning the run and the ledger, snapshot and trace paths.
func startTestRun(t *testing.T) (run *Run, ledger, snapshot, trace string) {
	dir := t.TempDir()
	ledger = filepath.Join(dir, "ledger.jsonl")
	snapshot = filepath.Join(dir, "metrics.json")
	trace = filepath.Join(dir, "trace.json")
	run = Start("cli-test", "serve", trace, ledger)
	run.MetricsOut = snapshot
	return run, ledger, snapshot, trace
}

// checkArtifacts fails unless the ledger ends with run_end reason and the
// snapshot and trace files exist.
func checkArtifacts(t *testing.T, ledger, snapshot, trace, reason string) {
	t.Helper()
	evs, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty ledger")
	}
	if end := evs[len(evs)-1]; end.Kind != obs.KindRunEnd || end.Reason != reason {
		t.Fatalf("ledger ends with %+v, want run_end reason %q", end, reason)
	}
	for _, p := range []string{snapshot, trace} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("artifact not written: %v", err)
		}
	}
}

// TestServeLifecycle drives the shared stop path with a context the test
// cancels: the drain step runs while the listener still answers, the
// listener is closed once Serve returns, and the run has closed with
// reason "sigterm" after writing its snapshot, ledger and trace.
func TestServeLifecycle(t *testing.T) {
	run, ledger, snapshot, trace := startTestRun(t)
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the stop is already pending: Serve listens, then drains at once
	var drains int
	var answeredInDrain bool
	run.Serve(ctx, addr, okHandler, 5*time.Second, func(dctx context.Context) error {
		drains++
		if _, ok := dctx.Deadline(); !ok {
			t.Error("drain ran without the timeout's deadline")
		}
		answeredInDrain = answers(addr)
		return nil
	})
	if drains != 1 {
		t.Fatalf("drain ran %d times, want once", drains)
	}
	if !answeredInDrain {
		t.Fatal("the listener did not answer during the drain step")
	}
	if answers(addr) {
		t.Fatal("the listener still answers after Serve returned")
	}
	checkArtifacts(t, ledger, snapshot, trace, "sigterm")
}

// A drain that runs out of time is awaited once more, without a deadline
// and after the listener is down, before the artifacts are written — the
// order that keeps awserve's ledger after its last admitted computation.
func TestServeAwaitsDrainPastTimeout(t *testing.T) {
	run, ledger, snapshot, trace := startTestRun(t)
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls []string
	run.Serve(ctx, addr, okHandler, time.Millisecond, func(dctx context.Context) error {
		if _, ok := dctx.Deadline(); ok {
			calls = append(calls, "bounded")
			<-dctx.Done()
			return dctx.Err()
		}
		if answers(addr) {
			t.Error("the listener still answers during the unbounded drain")
		}
		if _, err := os.Stat(ledger); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("ledger written before the drain finished (stat: %v)", err)
		}
		calls = append(calls, "unbounded")
		return nil
	})
	if len(calls) != 2 || calls[0] != "bounded" || calls[1] != "unbounded" {
		t.Fatalf("drain calls %v, want [bounded unbounded]", calls)
	}
	checkArtifacts(t, ledger, snapshot, trace, "sigterm")
}

// A listener that cannot bind ends the run through Fatal: the process
// exits 1 with the ledger (run_end reason "error"), the snapshot and the
// trace written. Fatal exits, so the run happens in a child process.
func TestServeListenerFailureExits(t *testing.T) {
	if addr := os.Getenv("CLI_TEST_BUSY_ADDR"); addr != "" {
		run := Start("cli-test", "busy", os.Getenv("CLI_TEST_TRACE"), os.Getenv("CLI_TEST_LEDGER"))
		run.MetricsOut = os.Getenv("CLI_TEST_SNAPSHOT")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		run.Serve(ctx, addr, okHandler, time.Second, nil)
		return // the bind succeeded: exit 0, which the parent reports
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	snapshot := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeListenerFailureExits$")
	cmd.Env = append(os.Environ(), "CLI_TEST_BUSY_ADDR="+busy.Addr().String(),
		"CLI_TEST_LEDGER="+ledger, "CLI_TEST_SNAPSHOT="+snapshot, "CLI_TEST_TRACE="+trace)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want exit status 1\n%s", err, out)
	}
	checkArtifacts(t, ledger, snapshot, trace, "error")
}

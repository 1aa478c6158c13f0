package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/mle"
	"speed/internal/wire"
)

func batchInputs(n int) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = []byte(fmt.Sprintf("input-%d", i))
	}
	return in
}

func echoCompute(counter *atomic.Int64) func([]byte) ([]byte, error) {
	return func(in []byte) ([]byte, error) {
		if counter != nil {
			counter.Add(1)
		}
		return append([]byte("out:"), in...), nil
	}
}

func TestExecuteBatchEmpty(t *testing.T) {
	env := newTestEnv(t, nil)
	res, err := env.runtime.ExecuteBatch(env.funcID(t), nil, echoCompute(nil))
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if res != nil {
		t.Errorf("ExecuteBatch(nil) = %v, want nil", res)
	}
}

func TestExecuteBatchMissThenHit(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	inputs := batchInputs(8)
	var computes atomic.Int64

	res, err := env.runtime.ExecuteBatch(id, inputs, echoCompute(&computes))
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if len(res) != len(inputs) {
		t.Fatalf("got %d results, want %d", len(res), len(inputs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Outcome != OutcomeComputed {
			t.Errorf("item %d outcome = %v, want computed", i, r.Outcome)
		}
		want := append([]byte("out:"), inputs[i]...)
		if !bytes.Equal(r.Result, want) {
			t.Errorf("item %d result = %q, want %q", i, r.Result, want)
		}
	}
	if n := computes.Load(); n != 8 {
		t.Errorf("compute ran %d times, want 8", n)
	}

	// The whole second batch must be served from the store.
	res, err = env.runtime.ExecuteBatch(id, inputs, echoCompute(&computes))
	if err != nil {
		t.Fatalf("second ExecuteBatch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Outcome != OutcomeReused {
			t.Errorf("item %d = (outcome %v, err %v), want reused", i, r.Outcome, r.Err)
		}
		want := append([]byte("out:"), inputs[i]...)
		if !bytes.Equal(r.Result, want) {
			t.Errorf("item %d result = %q, want %q", i, r.Result, want)
		}
	}
	if n := computes.Load(); n != 8 {
		t.Errorf("compute ran %d times after hit batch, want still 8", n)
	}

	st := env.runtime.Stats()
	if st.Calls != 16 || st.Computed != 8 || st.Reused != 8 {
		t.Errorf("Stats = calls %d computed %d reused %d, want 16/8/8", st.Calls, st.Computed, st.Reused)
	}
}

func TestExecuteBatchMixedHitMiss(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	inputs := batchInputs(6)

	// Pre-store results for half the inputs through the serial path.
	for i := 0; i < 3; i++ {
		if _, _, err := env.runtime.Execute(id, inputs[i], echoCompute(nil)); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	res, err := env.runtime.ExecuteBatch(id, inputs, echoCompute(nil))
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	for i, r := range res {
		want := OutcomeComputed
		if i < 3 {
			want = OutcomeReused
		}
		if r.Err != nil || r.Outcome != want {
			t.Errorf("item %d = (outcome %v, err %v), want %v", i, r.Outcome, r.Err, want)
		}
	}
}

func TestExecuteBatchCoalescesDuplicateInputs(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	var computes atomic.Int64
	inputs := [][]byte{
		[]byte("same"), []byte("other"), []byte("same"), []byte("same"),
	}
	res, err := env.runtime.ExecuteBatch(id, inputs, echoCompute(&computes))
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("compute ran %d times, want 2 (duplicates shared)", n)
	}
	if res[0].Outcome != OutcomeComputed || res[1].Outcome != OutcomeComputed {
		t.Errorf("leader outcomes = %v, %v, want computed", res[0].Outcome, res[1].Outcome)
	}
	for _, i := range []int{2, 3} {
		if res[i].Outcome != OutcomeCoalesced {
			t.Errorf("duplicate item %d outcome = %v, want coalesced", i, res[i].Outcome)
		}
		if !bytes.Equal(res[i].Result, res[0].Result) {
			t.Errorf("duplicate item %d result differs from leader", i)
		}
	}
	if st := env.runtime.Stats(); st.Coalesced != 2 {
		t.Errorf("Stats.Coalesced = %d, want 2", st.Coalesced)
	}
}

func TestExecuteBatchPerItemComputeError(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	inputs := batchInputs(5)
	boom := errors.New("boom")
	res, err := env.runtime.ExecuteBatch(id, inputs, func(in []byte) ([]byte, error) {
		if bytes.Equal(in, inputs[2]) {
			return nil, boom
		}
		return append([]byte("out:"), in...), nil
	})
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	for i, r := range res {
		if i == 2 {
			if !errors.Is(r.Err, boom) {
				t.Errorf("item 2 err = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("item %d err = %v, want nil (siblings unaffected)", i, r.Err)
		}
	}
	// The failed item must not have been stored: retrying it computes.
	res, err = env.runtime.ExecuteBatch(id, inputs[2:3], echoCompute(nil))
	if err != nil {
		t.Fatalf("retry ExecuteBatch: %v", err)
	}
	if res[0].Err != nil || res[0].Outcome != OutcomeComputed {
		t.Errorf("retry = (outcome %v, err %v), want computed", res[0].Outcome, res[0].Err)
	}
}

// gatedPutClient blocks the first PUT until released, pinning the
// caller's flight open while the test arranges concurrent work.
type gatedPutClient struct {
	StoreClient
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (c *gatedPutClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return c.StoreClient.Put(tc, items)
}

func TestExecuteBatchJoinsInflightExecute(t *testing.T) {
	gate := &gatedPutClient{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	env := newTestEnv(t, func(cfg *Config) {
		gate.StoreClient = cfg.Client
		cfg.Client = gate
	})
	id := env.funcID(t)
	input := []byte("shared-input")

	execDone := make(chan error, 1)
	go func() {
		_, _, err := env.runtime.Execute(id, input, func(in []byte) ([]byte, error) {
			return []byte("slow-result"), nil
		})
		execDone <- err
	}()
	// Execute is now blocked inside its PUT, with its flight still
	// registered (flights close only after the upload attempt).
	<-gate.entered

	batchDone := make(chan struct{})
	var res []BatchResult
	var berr error
	go func() {
		defer close(batchDone)
		res, berr = env.runtime.ExecuteBatch(id, [][]byte{input}, func([]byte) ([]byte, error) {
			t.Error("batch computed an input already in flight")
			return nil, errors.New("unexpected compute")
		})
	}()
	// The batch must be blocked joining the flight, not done.
	select {
	case <-batchDone:
		t.Fatal("batch completed while the flight it should join was still open")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	<-batchDone
	if err := <-execDone; err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if berr != nil {
		t.Fatalf("ExecuteBatch: %v", berr)
	}
	if res[0].Err != nil || res[0].Outcome != OutcomeCoalesced {
		t.Errorf("joined item = (outcome %v, err %v), want coalesced", res[0].Outcome, res[0].Err)
	}
	if string(res[0].Result) != "slow-result" {
		t.Errorf("joined item result = %q, want the flight's result", res[0].Result)
	}
}

func TestExecuteBatchLeadersVisibleToExecute(t *testing.T) {
	// While a batch leader computes, a concurrent Execute for the same
	// input must coalesce onto the batch's flight.
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	input := []byte("batch-led")

	block := make(chan struct{})
	started := make(chan struct{})
	type out struct {
		res []BatchResult
		err error
	}
	batchDone := make(chan out, 1)
	go func() {
		res, err := env.runtime.ExecuteBatch(id, [][]byte{input}, func(in []byte) ([]byte, error) {
			close(started)
			<-block
			return []byte("led-result"), nil
		})
		batchDone <- out{res, err}
	}()
	<-started

	execDone := make(chan error, 1)
	var execRes []byte
	go func() {
		var err error
		execRes, _, err = env.runtime.Execute(id, input, func([]byte) ([]byte, error) {
			t.Error("Execute recomputed a batch leader's input")
			return nil, errors.New("unexpected compute")
		})
		execDone <- err
	}()
	waitFor(t, "Execute to join the batch flight", func() bool {
		env.runtime.flightMu.Lock()
		f, ok := env.runtime.inflight[mle.ComputeTag(id, input)]
		env.runtime.flightMu.Unlock()
		return ok && f != nil
	})
	close(block)
	b := <-batchDone
	if b.err != nil {
		t.Fatalf("ExecuteBatch: %v", b.err)
	}
	if err := <-execDone; err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if string(execRes) != "led-result" {
		t.Errorf("Execute result = %q, want the batch leader's result", execRes)
	}
	if b.res[0].Outcome != OutcomeComputed {
		t.Errorf("leader outcome = %v, want computed", b.res[0].Outcome)
	}
}

func TestExecuteBatchAfterClose(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	if err := env.runtime.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := env.runtime.ExecuteBatch(id, batchInputs(2), echoCompute(nil)); err == nil {
		t.Error("ExecuteBatch on a closed runtime succeeded")
	}
}

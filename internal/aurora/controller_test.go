package aurora

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/core"
)

// fakeTarget counts optimizations and can fail on demand.
type fakeTarget struct {
	calls atomic.Int64
	fail  atomic.Bool
}

func (f *fakeTarget) OptimizeNow(core.OptimizerOptions) (core.OptimizeResult, error) {
	f.calls.Add(1)
	if f.fail.Load() {
		return core.OptimizeResult{}, errors.New("boom")
	}
	return core.OptimizeResult{
		Replications: 2,
		Evictions:    1,
		Search:       core.SearchResult{Movements: 3, FinalCost: 7},
	}, nil
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, Config{Period: time.Second}); !errors.Is(err, ErrNilTarget) {
		t.Errorf("nil target err = %v, want ErrNilTarget", err)
	}
	if _, err := NewController(&fakeTarget{}, Config{}); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("zero period err = %v, want ErrBadPeriod", err)
	}
}

func TestControllerPeriodicRuns(t *testing.T) {
	ft := &fakeTarget{}
	c, err := NewController(ft, Config{Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for ft.calls.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := ft.calls.Load(); got < 3 {
		t.Fatalf("optimizer ran %d times, want >= 3", got)
	}
	st := c.Stats()
	if st.Periods < 3 || st.Replications < 6 || st.Migrations < 9 || st.LastCost != 7 {
		t.Errorf("Stats = %+v, want at least 3 periods of (2 rep, 3 mig)", st)
	}
}

func TestControllerRunOnceAndErrors(t *testing.T) {
	ft := &fakeTarget{}
	var observed atomic.Int64
	c, err := NewController(ft, Config{
		Period:   time.Hour, // timer never fires during the test
		OnPeriod: func(core.OptimizeResult, error) { observed.Add(1) },
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	defer c.Close()
	if _, err := c.RunOnce(); err != nil {
		t.Fatalf("RunOnce: %v", err)
	}
	ft.fail.Store(true)
	if _, err := c.RunOnce(); err == nil {
		t.Fatal("RunOnce with failing target succeeded")
	}
	st := c.Stats()
	if st.Periods != 2 || st.Errors != 1 {
		t.Errorf("Stats = %+v, want 2 periods 1 error", st)
	}
	if observed.Load() != 2 {
		t.Errorf("OnPeriod fired %d times, want 2", observed.Load())
	}
}

func TestControllerCloseIdempotent(t *testing.T) {
	c, err := NewController(&fakeTarget{}, Config{Period: time.Hour})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); !errors.Is(err, ErrStopped) {
		t.Errorf("second Close err = %v, want ErrStopped", err)
	}
}

// TestControllerRunOnceRacesTicker races manual RunOnce calls from
// several goroutines against the controller's own 1 ms ticker. Under
// -race this guards the Stats/backoff bookkeeping; afterwards every
// OptimizeNow the target saw must be counted as exactly one period.
func TestControllerRunOnceRacesTicker(t *testing.T) {
	const goroutines, tickerPeriods = 4, 3
	ft := &fakeTarget{}
	c, err := NewController(ft, Config{Period: time.Millisecond})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	var manual atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.RunOnce(); err != nil {
					t.Errorf("RunOnce: %v", err)
					return
				}
				_ = c.Stats()
				manual.Add(1)
			}
		}()
	}
	// Up to one call per goroutine is counted by the target but not yet
	// by manual, so this gap guarantees tickerPeriods ticker-driven calls.
	deadline := time.Now().Add(10 * time.Second)
	for ft.calls.Load()-manual.Load() < tickerPeriods+goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, calls := c.Stats(), ft.calls.Load()
	if int64(st.Periods) != calls {
		t.Errorf("Stats().Periods = %d, target saw %d OptimizeNow calls", st.Periods, calls)
	}
	if ticks := calls - manual.Load(); ticks < tickerPeriods {
		t.Errorf("ticker ran %d periods among the manual ones, want >= %d", ticks, tickerPeriods)
	}
	if st.Errors != 0 {
		t.Errorf("Stats().Errors = %d, want 0", st.Errors)
	}
}

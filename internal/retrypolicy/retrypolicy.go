// Package retrypolicy is the single retry/backoff helper shared by the
// DFS layer: bounded attempts, exponential backoff with multiplicative
// growth capped at a maximum delay, and seeded jitter so synchronized
// clients do not retry in lockstep. The mini-DFS client, the datanode
// command path and the fault-injection chaos tests all use this one
// policy type instead of growing ad-hoc retry loops (the optimizer's
// "retry once after eviction" in internal/core and the task-read
// location refresh in internal/experiments are single-shot fallbacks,
// not timed retries, and intentionally stay local).
//
// The zero Policy retries nothing (a single attempt); use Default or
// DefaultFast for sensible cluster settings. Policies are values and
// are safe to share between goroutines; the jitter source behind Rand
// is internally locked.
package retrypolicy

import (
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// ErrAttemptsExhausted wraps the last error once MaxAttempts tries have
// failed, so callers can distinguish "retried and gave up" from an
// immediate permanent failure.
var ErrAttemptsExhausted = errors.New("retrypolicy: attempts exhausted")

// Policy describes one bounded exponential-backoff schedule.
type Policy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 mean a single attempt with no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff; zero means no cap.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts; values <= 1 default
	// to 2 (classic doubling).
	Multiplier float64
	// Jitter in [0,1] randomizes each delay within ±Jitter/2 of its
	// nominal value, de-synchronizing retry storms. Zero disables it.
	Jitter float64

	// Retryable classifies errors; nil retries everything. Permanent
	// errors (e.g. application-level rejections) should return false so
	// they surface immediately.
	Retryable func(error) bool
	// Sleep is the delay implementation; nil means time.Sleep. Tests
	// inject a recorder to run instantly.
	Sleep func(time.Duration)
	// Rand yields jitter samples in [0,1); nil uses a package-level
	// seeded, locked source.
	Rand func() float64
	// OnRetry, if non-nil, observes every scheduled retry: the attempt
	// number that just failed (1-based), its error and the backoff
	// chosen before the next try.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// Default is the cluster-wide policy for control-plane RPCs: four
// attempts spanning roughly half a second.
var Default = Policy{
	MaxAttempts: 4,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.2,
}

// jitterSrc is the default jitter source: seeded so test runs are
// repeatable, locked so concurrent retries are safe. Jitter only
// de-synchronizes timing; it never changes control flow, so a fixed
// seed is not a determinism hazard.
var jitterSrc = struct {
	mu  sync.Mutex
	rng *rand.Rand
}{rng: rand.New(rand.NewPCG(0x9e3779b97f4a7c15, 0xa07204a))}

func defaultRand() float64 {
	jitterSrc.mu.Lock()
	defer jitterSrc.mu.Unlock()
	return jitterSrc.rng.Float64()
}

// Delay returns the nominal (jitter-free) backoff after the given
// 1-based failed attempt: BaseDelay * Multiplier^(attempt-1), capped at
// MaxDelay.
func (p Policy) Delay(attempt int) time.Duration {
	if attempt < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// jittered applies the policy's jitter to a nominal delay.
func (p Policy) jittered(d time.Duration) time.Duration {
	if p.Jitter <= 0 || d <= 0 {
		return d
	}
	j := p.Jitter
	if j > 1 {
		j = 1
	}
	r := p.Rand
	if r == nil {
		r = defaultRand
	}
	// Scale by a factor in [1-j/2, 1+j/2).
	factor := 1 + j*(r()-0.5)
	return time.Duration(float64(d) * factor)
}

// Do runs op until it succeeds, an error is classified permanent, or
// MaxAttempts tries have failed. The final failure is wrapped in
// ErrAttemptsExhausted only when retries were actually exhausted;
// permanent errors return as-is.
func (p Policy) Do(op func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		if p.Retryable != nil && !p.Retryable(err) {
			return err
		}
		if attempt >= attempts {
			if attempts > 1 {
				return errors.Join(ErrAttemptsExhausted, err)
			}
			return err
		}
		delay := p.jittered(p.Delay(attempt))
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, delay)
		}
		if delay > 0 {
			sleep(delay)
		}
	}
}

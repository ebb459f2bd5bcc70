package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	attempts, err := Do(context.Background(), Policy{}, func(context.Context) error {
		calls++
		return errors.New("boom")
	})
	if attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d, want 1/1", attempts, calls)
	}
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	attempts, err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v, want 3/nil", attempts, err)
	}
}

func TestExhaustsAttemptCap(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
	sentinel := errors.New("down")
	attempts, err := Do(context.Background(), p, func(context.Context) error { return sentinel })
	if attempts != 4 || !errors.Is(err, sentinel) {
		t.Fatalf("attempts=%d err=%v, want 4/sentinel", attempts, err)
	}
}

func TestBackoffBounds(t *testing.T) {
	p := Policy{BaseBackoff: 40 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	for n, want := range []time.Duration{40, 80, 100, 100} {
		want *= time.Millisecond
		for i := 0; i < 50; i++ {
			d := p.Backoff(n)
			if d < want/2 || d > want {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v]", n, d, want/2, want)
			}
		}
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100, BaseBackoff: 10 * time.Millisecond}
	calls := 0
	attempts, err := Do(ctx, p, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("down")
	})
	if attempts > 3 {
		t.Fatalf("kept retrying after cancel: %d attempts", attempts)
	}
	if err == nil {
		t.Fatal("expected the operation error")
	}
}

// TestBackoffUncappedLargeAttemptDoesNotOverflow is the regression
// test for the doubling-loop int64 overflow: with MaxBackoff == 0 the
// pre-fix loop doubled base straight past math.MaxInt64 at high
// attempt indices, producing a negative duration and panicking the
// jitter draw (rand.Int64N of a non-positive bound). A soak-length
// retry sequence against a dead-forever endpoint reaches exactly these
// indices.
func TestBackoffUncappedLargeAttemptDoesNotOverflow(t *testing.T) {
	p := Policy{MaxAttempts: 1 << 30, BaseBackoff: time.Second} // uncapped: MaxBackoff 0
	for _, n := range []int{0, 1, 10, 62, 63, 64, 100, 1 << 20} {
		d := p.Backoff(n) // pre-fix: panics for n >= 62
		if d <= 0 {
			t.Fatalf("Backoff(%d) = %v, want positive", n, d)
		}
		if d > maxBackoffCeiling {
			t.Fatalf("Backoff(%d) = %v exceeds the uncapped ceiling %v", n, d, maxBackoffCeiling)
		}
	}
}

// TestBackoffHugeBaseClampsToCap pins the clamp when BaseBackoff alone
// already exceeds the effective cap.
func TestBackoffHugeBaseClampsToCap(t *testing.T) {
	p := Policy{BaseBackoff: 3 * time.Hour} // above the uncapped ceiling
	if d := p.Backoff(5); d <= 0 || d > maxBackoffCeiling {
		t.Fatalf("Backoff = %v, want in (0, %v]", d, maxBackoffCeiling)
	}
	capped := Policy{BaseBackoff: time.Hour, MaxBackoff: time.Millisecond}
	if d := capped.Backoff(0); d <= 0 || d > time.Millisecond {
		t.Fatalf("Backoff = %v, want in (0, 1ms]", d)
	}
}

package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestClosedRunsEveryIndexOnce checks the closed-loop driver at one worker,
// a few workers, and more workers than requests: every index reaches do
// exactly once, every call lands in the recorder, and Errors counts exactly
// the failing indices.
func TestClosedRunsEveryIndexOnce(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 4, n + 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var seen [n]atomic.Int32
			res, err := Closed(context.Background(), workers, n, func(ctx context.Context, i int) error {
				seen[i].Add(1)
				if i%7 == 3 {
					return errors.New("boom")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("index %d passed to do %d times, want 1", i, c)
				}
			}
			wantErrs := 0
			for i := 0; i < n; i++ {
				if i%7 == 3 {
					wantErrs++
				}
			}
			if res.Sent != n || res.Errors != wantErrs {
				t.Errorf("sent=%d errors=%d, want %d/%d", res.Sent, res.Errors, n, wantErrs)
			}
			if res.Latency.Count != n {
				t.Errorf("latency count = %d, want %d", res.Latency.Count, n)
			}
			if res.Achieved <= 0 || res.Elapsed <= 0 {
				t.Errorf("achieved %g qps over %v, want both positive", res.Achieved, res.Elapsed)
			}
			if res.Offered != 0 || res.MaxLag != 0 {
				t.Errorf("closed run reports offered %g, max lag %v; want zero", res.Offered, res.MaxLag)
			}
		})
	}
}

// TestClosedCancel: cancelling the context mid-run stops the workers
// claiming indices, and the context's error comes back with the partial
// result.
func TestClosedCancel(t *testing.T) {
	const n = 10000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Closed(ctx, 4, n, func(ctx context.Context, i int) error {
		if i == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Sent >= n {
		t.Errorf("cancel did not stop the run: sent %d of %d", res.Sent, n)
	}
}

func TestClosedRejectsBadCounts(t *testing.T) {
	nop := func(context.Context, int) error { return nil }
	for _, c := range []struct{ workers, n int }{{0, 10}, {-1, 10}, {4, 0}, {4, -5}} {
		if _, err := Closed(context.Background(), c.workers, c.n, nop); err == nil {
			t.Errorf("Closed(workers=%d, n=%d) accepted", c.workers, c.n)
		}
	}
}

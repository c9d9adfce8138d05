package montecarlo

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// countingSink records the progress callbacks it receives.
type countingSink struct {
	started, ended     atomic.Int64
	done, failed       atomic.Int64
	total, workerCount atomic.Int64
}

func (s *countingSink) RunStart(total, workers int) {
	s.started.Add(1)
	s.total.Store(int64(total))
	s.workerCount.Store(int64(workers))
}
func (s *countingSink) SampleDone(failed bool) {
	s.done.Add(1)
	if failed {
		s.failed.Add(1)
	}
}
func (s *countingSink) RunEnd() { s.ended.Add(1) }

func TestProgressSinkSeesEverySample(t *testing.T) {
	sink := &countingSink{}
	SetProgress(sink)
	defer SetProgress(nil)

	const n = 200
	_, rep, err := MapReportCtx(context.Background(), n, 7, 4, RunOpts{Policy: SkipUpTo(0.5)},
		func(idx int, _ *rand.Rand) (int, error) {
			if idx%10 == 0 {
				return 0, fmt.Errorf("boom %d", idx)
			}
			return idx, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sink.started.Load() != 1 || sink.ended.Load() != 1 {
		t.Fatalf("RunStart/RunEnd = %d/%d, want 1/1", sink.started.Load(), sink.ended.Load())
	}
	if got := sink.done.Load(); got != int64(rep.Attempted) {
		t.Fatalf("SampleDone ticks %d, attempted %d", got, rep.Attempted)
	}
	if got := sink.failed.Load(); got != int64(rep.Failed) {
		t.Fatalf("failed ticks %d, report says %d", got, rep.Failed)
	}
	if sink.total.Load() != n || sink.workerCount.Load() != 4 {
		t.Fatalf("run shape %d/%d, want %d/4", sink.total.Load(), sink.workerCount.Load(), n)
	}
}

func TestProgressSinkDetach(t *testing.T) {
	sink := &countingSink{}
	SetProgress(sink)
	SetProgress(nil)
	if _, err := Map(10, 1, 2, func(idx int, _ *rand.Rand) (int, error) { return idx, nil }); err != nil {
		t.Fatal(err)
	}
	if sink.started.Load() != 0 {
		t.Fatal("detached sink still received callbacks")
	}
}

// TestRunReportStringDeterministic locks the health line's rescue-stage
// rendering to sorted stage order: the same report must render identically
// on every call regardless of map iteration order.
func TestRunReportStringDeterministic(t *testing.T) {
	rep := RunReport{
		Attempted: 1000, Succeeded: 997, Failed: 3, Panics: 1,
		Rescued: map[string]int64{
			"tran-substep":     4,
			"dc-gmin":          2,
			"fast-fallback":    9,
			"nonfinite-reject": 1,
			"dc-pseudo-tran":   3,
			"tran-halve":       5,
			"dc-source":        6,
		},
	}
	want := "attempted 1000, succeeded 997, failed 3 (1 panics)" +
		", rescued[dc-gmin]=2, rescued[dc-pseudo-tran]=3, rescued[dc-source]=6" +
		", rescued[fast-fallback]=9, rescued[nonfinite-reject]=1" +
		", rescued[tran-halve]=5, rescued[tran-substep]=4"
	for i := 0; i < 50; i++ {
		if got := rep.String(); got != want {
			t.Fatalf("render %d differs:\ngot  %q\nwant %q", i, got, want)
		}
	}
}

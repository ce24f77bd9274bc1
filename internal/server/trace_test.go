package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgridfile/internal/gridfile"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
	"pgridfile/internal/workload"
)

// syncBuffer is a goroutine-safe log sink for the slow-query log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// stepClock is a deterministic shared time source: every read advances it by
// a fixed step, so any start/end pair measures at least one step, concurrent
// readers see a strictly monotone clock, and measured durations depend only
// on how many times the code path read the clock — not on scheduler noise.
type stepClock struct {
	ns   atomic.Int64
	step int64
}

func (c *stepClock) now() time.Time {
	return time.Unix(0, c.ns.Add(c.step))
}

// TestTracingEndToEnd serves a traced workload and checks the full S23
// surface: every data query is traced, the stage histograms cover the hot
// path, the slow-query log emits one well-formed line per query, and the
// stage sum is commensurate with the measured latencies. The server and the
// store share an injected step clock, so every duration in the test is a
// deterministic count of clock reads rather than wall time.
func TestTracingEndToEnd(t *testing.T) {
	var log syncBuffer
	clk := &stepClock{step: 300} // ns per read: keeps single-step stages sub-µs
	s, f := newTestServer(t, 900, 4, Config{
		TraceSample:  1,
		TraceSlowLog: true,
		TraceSlow:    0, // log every traced query
		TraceLog:     &log,
		clock:        clk.now,
	})
	s.st.SetClock(clk.now)
	cl := newTestClient(t, s, ClientConfig{})

	dom := f.Domain()
	const queries = 40
	for i, q := range workload.SquareRange(dom, 0.1, queries, 3) {
		n, _, err := cl.RangeCount(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if want := f.RangeCount(q); n != want {
			t.Fatalf("query %d returned %d records, want %d", i, n, want)
		}
	}
	var key [2]float64
	f.Scan(func(k []float64, _ []byte) bool { key = [2]float64{k[0], k[1]}; return false })
	if _, _, err := cl.Point(key[:]); err != nil {
		t.Fatal(err)
	}

	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced != queries+1 {
		t.Errorf("traced = %d, want %d", snap.Traced, queries+1)
	}
	if snap.Stages == nil {
		t.Fatal("snapshot carries no stage summaries despite tracing")
	}
	for _, name := range stageNames {
		q, ok := snap.Stages[name]
		if !ok {
			t.Errorf("stage %q missing from STATS", name)
			continue
		}
		if q.Count != snap.Traced {
			t.Errorf("stage %q observed %d queries, want %d", name, q.Count, snap.Traced)
		}
	}
	// The hot path really ran: translation, cache bookkeeping and encode
	// take nonzero time on every query; pread touched the disk at least once.
	for _, name := range []string{"translate", "cache", "encode", "pread"} {
		if snap.Stages[name].Max == 0 {
			t.Errorf("stage %q never recorded any time", name)
		}
	}
	// Stage sums must explain the measured latency. The step clock drives
	// both sides, so the untraced slack between stages is a handful of clock
	// reads and the remaining error is log2-bin quantile rounding (√2 on
	// each side): sum of stage p50s within 2x of the end-to-end p50. Disk
	// stages overlap across spindles, so the sum may also exceed elapsed.
	sum := 0.0
	for _, name := range stageNames {
		sum += snap.Stages[name].P50 / 1e3 // stage histograms are ns
	}
	if p50 := snap.LatencyMicros.P50; sum < p50/2 {
		t.Errorf("stage p50 sum %.1fµs explains less than half of end-to-end p50 %.1fµs", sum, p50)
	}
	// The derived µs view must be the ns view scaled, not a second histogram
	// that could drift. Compare with a 1-ulp tolerance: ×1e-3 and ÷1e3
	// round differently.
	sameScaled := func(us, ns float64) bool {
		return math.Abs(us-ns/1e3) <= 1e-12*math.Abs(us)
	}
	for _, name := range stageNames {
		ns, us := snap.Stages[name], snap.StagesMicros[name]
		if us.Count != ns.Count || !sameScaled(us.P50, ns.P50) || !sameScaled(us.Max, ns.Max) {
			t.Errorf("stage %q micros view %+v is not nanos %+v / 1e3", name, us, ns)
		}
	}
	// Nanosecond resolution is the point of the change: with a µs histogram
	// every sub-µs stage collapsed into bin 0 and reported a flat 0.5. The
	// cheap always-run stages (translate, encode) must now resolve to
	// something a real clock could produce — at least tens of ns.
	for _, name := range []string{"translate", "encode"} {
		if p50 := snap.Stages[name].P50; p50 < 1 {
			t.Errorf("stage %q p50 = %gns: ns histograms should resolve sub-µs stages", name, p50)
		}
	}

	// One slow-log line per traced query, structured and parseable.
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if int64(len(lines)) != snap.Traced {
		t.Fatalf("slow log has %d lines, want %d:\n%s", len(lines), snap.Traced, log.String())
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "gridserver trace verb=") {
			t.Fatalf("malformed slow-log line: %q", ln)
		}
		for _, field := range []string{"elapsed=", "buckets=", "pages=", "degraded=", "leads="} {
			if !strings.Contains(ln, " "+field) {
				t.Errorf("slow-log line missing %s: %q", field, ln)
			}
		}
		for _, name := range stageNames {
			if !strings.Contains(ln, " "+name+"=") {
				t.Errorf("slow-log line missing stage %s: %q", name, ln)
			}
		}
	}
}

// TestMergedWindowTraced hands one disk worker a window of two live
// requests for disjoint buckets, one of them traced, with the cache on: the
// worker must serve both with one merged read, answer each with its own
// records and page count, and charge the traced request the window's
// fetch_wait, pread and decode. The server and store share a step clock, so
// every charged stage is a deterministic nonzero count of clock reads.
func TestMergedWindowTraced(t *testing.T) {
	clk := &stepClock{step: 300}
	s, f := newTestServer(t, 900, 2, Config{clock: clk.now})
	s.st.SetClock(clk.now)

	var onDisk0 []int32
	for _, v := range f.Buckets() {
		if pl, _ := s.st.Placement(v.ID); pl.Disk == 0 {
			onDisk0 = append(onDisk0, v.ID)
		}
	}
	if len(onDisk0) < 2 {
		t.Fatalf("layout put %d buckets on disk 0, want >= 2", len(onDisk0))
	}
	half := len(onDisk0) / 2
	sets := [][]int32{onDisk0[:half], onDisk0[half:]}
	tr := new(Trace)
	resp := make(chan fetchResp, len(sets))
	merged := s.met.mergedFetches.Load()

	var window []fetchReq
	for i, ids := range sets {
		req := fetchReq{ids: ids, idxs: make([]int, len(ids)), ctx: context.Background(), resp: resp}
		if i == 0 {
			req.tr, req.enq = tr, clk.now()
		}
		window = append(window, req)
	}
	queueWindow(s.sched[0], window)

	for range sets {
		r := <-resp
		if r.err != nil {
			t.Fatal(r.err)
		}
		checkFetched(t, s, f, r)
	}
	if got := s.met.mergedFetches.Load() - merged; got != 2 {
		t.Errorf("merged_fetches rose by %d, want 2 (one merged window)", got)
	}
	for _, st := range []int{stageFetchWait, stagePread, stageDecode} {
		if tr.stages[st].Load() == 0 {
			t.Errorf("traced request in a merged window recorded no %s", stageNames[st])
		}
	}
}

// queueWindow queues reqs under one hold of q's ring lock, so the worker's
// next swap drains them as a single window.
func queueWindow(q *diskQueue, reqs []fetchReq) {
	q.mu.Lock()
	q.reqs = append(q.reqs, reqs...)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// checkFetched asserts that a successful fetch response carries exactly
// each bucket's records and the request's page count.
func checkFetched(t *testing.T, s *Server, f *gridfile.File, r fetchResp) {
	t.Helper()
	wantPages := 0
	for k, id := range r.ids {
		pl, _ := s.st.Placement(id)
		wantPages += pl.Pages
		var want []float64
		f.ForEachRecordInBucket(id, func(key []float64, _ []byte) { want = append(want, key...) })
		if !slices.Equal(r.recs[k].Coords, want) {
			t.Errorf("bucket %d: read returned %v, want %v", id, r.recs[k].Coords, want)
		}
	}
	if r.pages != wantPages {
		t.Errorf("request for buckets %v charged %d pages, want %d", r.ids, r.pages, wantPages)
	}
}

// TestWindowFailureIsolation hands one disk worker windows that mix an
// already-cancelled request, a request whose bucket has a corrupt page and
// a healthy request, on a checksummed layout with the cache on. The merged
// read fails its checksum, so every answer must come from the split path:
// the cancelled request gets its context error without I/O, the corrupt one
// a checksum error, the healthy one its exact records and pages, and
// merged_fetches does not move. A one-request window takes the same path.
func TestWindowFailureIsolation(t *testing.T) {
	const (
		cancelled = iota
		corrupt
		healthy
	)
	f, err := synth.Uniform2D(900, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir, m := writeLayout(t, f, "minimax", 4, 1)
	var onDisk0 []store.Placement
	for _, pl := range m.Buckets {
		if pl.Disk == 0 {
			onDisk0 = append(onDisk0, pl)
		}
	}
	if len(onDisk0) < 3 {
		t.Fatalf("layout put %d buckets on disk 0, want >= 3", len(onDisk0))
	}
	victim := onDisk0[corrupt]
	flipPage(t, dir, victim.Disk, victim.Page, m.PageBytes)
	s, err := OpenDir(dir, Config{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	for _, kinds := range [][]int{{cancelled, corrupt, healthy}, {corrupt}} {
		resp := make(chan fetchResp, len(kinds))
		var window []fetchReq
		for _, k := range kinds {
			req := fetchReq{ids: []int32{onDisk0[k].ID}, idxs: []int{k}, ctx: context.Background(), resp: resp}
			if k == cancelled {
				req.ctx = dead
			}
			window = append(window, req)
		}
		merged := s.met.mergedFetches.Load()
		queueWindow(s.sched[0], window)
		for range kinds {
			r := <-resp
			switch r.idxs[0] {
			case cancelled:
				if !errors.Is(r.err, context.Canceled) {
					t.Errorf("window %v: cancelled request got %v, want context.Canceled", kinds, r.err)
				}
			case corrupt:
				if !store.IsChecksum(r.err) {
					t.Errorf("window %v: corrupt request got %v, want a checksum error", kinds, r.err)
				}
			case healthy:
				if r.err != nil {
					t.Fatalf("window %v: healthy request failed: %v", kinds, r.err)
				}
				checkFetched(t, s, f, r)
			}
		}
		if got := s.met.mergedFetches.Load() - merged; got != 0 {
			t.Errorf("window %v: merged_fetches rose by %d, want 0 (the merged read failed)", kinds, got)
		}
	}
}

// TestTraceSampling checks the 1-in-N sampler: with TraceSample=4 roughly a
// quarter of queries are traced — exactly every 4th, since the counter is
// deterministic under a single client.
func TestTraceSampling(t *testing.T) {
	s, f := newTestServer(t, 300, 2, Config{TraceSample: 4})
	cl := newTestClient(t, s, ClientConfig{})
	var key [2]float64
	f.Scan(func(k []float64, _ []byte) bool { key = [2]float64{k[0], k[1]}; return false })
	const queries = 40
	for i := 0; i < queries; i++ {
		if _, _, err := cl.Point(key[:]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(queries / 4); snap.Traced != want {
		t.Errorf("traced = %d of %d, want %d", snap.Traced, queries, want)
	}
}

// TestTraceSlowThreshold: with a high threshold, queries are traced (stage
// histograms fill) but nothing is logged.
func TestTraceSlowThreshold(t *testing.T) {
	var log syncBuffer
	s, f := newTestServer(t, 300, 2, Config{
		TraceSample:  1,
		TraceSlowLog: true,
		TraceSlow:    time.Hour,
		TraceLog:     &log,
	})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCount(f.Domain()); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced == 0 {
		t.Error("nothing traced despite TraceSample=1")
	}
	if got := log.String(); got != "" {
		t.Errorf("sub-threshold query logged: %q", got)
	}
}

// TestTracingOffByDefault: the zero config neither traces nor logs.
func TestTracingOffByDefault(t *testing.T) {
	var log syncBuffer
	s, f := newTestServer(t, 300, 2, Config{TraceLog: &log})
	cl := newTestClient(t, s, ClientConfig{})
	if _, _, err := cl.RangeCount(f.Domain()); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Traced != 0 || snap.Stages != nil {
		t.Errorf("untraced server reported traced=%d stages=%v", snap.Traced, snap.Stages)
	}
	if got := log.String(); got != "" {
		t.Errorf("untraced server logged: %q", got)
	}
}

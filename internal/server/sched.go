package server

// Batched per-disk I/O submission. Queries append to a disk's request ring
// and poke its worker, which drains the whole ring as one window. Every
// window takes one path: serveWindow decides which requests are read and
// how, and readWindow does each read and scatters completions back to each
// query's response channel, out of order with respect to submission.
//
// The window is deliberately shaped like an io_uring submission batch: a
// future backend can take the same window, turn every placement run into an
// SQE, and harvest CQEs, without the upper layers changing at all.

import (
	"context"
	"errors"
	rtrace "runtime/trace"
	"sync"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

// fetchReq asks a disk worker for a batch of buckets, all resident on that
// disk. idxs carries each bucket's index in the submitting query's recs
// slice so the response can be scattered into place without a map.
type fetchReq struct {
	ids  []int32
	idxs []int
	ctx  context.Context  // the owning query; expired fetches are skipped
	resp chan<- fetchResp // buffered by the submitter; never blocks
	tr   *Trace           // the owning query's stage trace; nil when untraced
	enq  time.Time        // submit time, for the fetch_wait stage (zero when untraced)
}

type fetchResp struct {
	ids   []int32     // the requested batch (echoed for error accounting)
	idxs  []int       // echoed recs indices, parallel to ids
	recs  []geom.Flat // decoded arenas, parallel to ids; nil on error
	disk  int         // which disk served (or failed) the batch
	pages int
	err   error
}

// diskQueue is one disk's submission ring: submitters append under a mutex
// and poke the worker through a 1-slot wake channel, so a submission is two
// cheap operations regardless of how deep the backlog is, and the worker
// picks up every request queued while it was busy in one swap.
type diskQueue struct {
	mu     sync.Mutex
	reqs   []fetchReq
	wake   chan struct{}
	closed bool
}

func newDiskQueue() *diskQueue {
	return &diskQueue{wake: make(chan struct{}, 1)}
}

// submit enqueues r and wakes the worker. It reports false — without
// enqueueing — once the queue is closed.
func (q *diskQueue) submit(r fetchReq) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// close marks the queue closed and wakes the worker so it can exit once the
// backlog drains. Callers guarantee no submissions race with close.
func (q *diskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// windowScratch is one worker's reusable buffers for window reads.
type windowScratch struct {
	ids  []int32
	recs []geom.Flat
}

// diskWorker is one disk's I/O worker: one head per spindle, as in the
// paper's model. It swaps the submission ring against an empty one and
// serves the whole window before looking again, so every request admitted
// while a read was in flight becomes one batch.
func (s *Server) diskWorker(disk int, q *diskQueue) {
	defer s.fetchWg.Done()
	sc := &windowScratch{}
	var window []fetchReq
	for {
		q.mu.Lock()
		window, q.reqs = q.reqs, window[:0]
		closed := q.closed
		q.mu.Unlock()
		if len(window) == 0 {
			if closed {
				return
			}
			<-q.wake
			continue
		}
		s.serveWindow(disk, window, sc)
		// Drop the served requests' references (contexts, response
		// channels) before the next swap parks this array back in the ring.
		for i := range window {
			window[i] = fetchReq{}
		}
	}
}

// serveWindow serves one drained window. An expired request has abandoned
// its fetch and is answered with its context error and no I/O, so a dead
// backlog cannot starve live queries. Two or more live requests are read
// once as one merged window with a single attempt; merging requires the
// bucket cache, whose singleflight keeps concurrent lead sets disjoint as the
// store's read API demands. When that read fails, or merging did not apply,
// each live request is read alone with the full retry budget and a final
// failure is answered with its error — so merging can only save I/O, never
// change an answer.
func (s *Server) serveWindow(disk int, window []fetchReq, sc *windowScratch) {
	live := window[:0]
	for _, req := range window {
		if err := req.ctx.Err(); err != nil {
			s.traceSince(req.tr, stageFetchWait, req.enq)
			req.resp <- fetchResp{ids: req.ids, idxs: req.idxs, disk: disk, err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) > 1 && s.bcache != nil && s.readWindow(disk, live, 0, sc) == nil {
		return
	}
	for i, req := range live {
		if err := s.readWindow(disk, live[i:i+1], s.cfg.FetchRetries, sc); err != nil {
			req.resp <- fetchResp{ids: req.ids, idxs: req.idxs, disk: disk, err: err}
		}
	}
}

// readWindow reads every request's buckets from disk in one coalesced store
// call under the first request's context, retrying a transient failure up to
// retries times. On success it publishes the leads to the cache and answers
// each request with its records and page count. On failure it answers no one
// and returns the error; the leads stay pending, since the gather loop may
// still fail the batch over to a surviving owner disk.
//
// Transient means an injected fault (torn reads included) or a per-attempt
// timeout. A checksum mismatch is not retried here — rereading the same copy
// returns the same bytes — but the gather loop fails it over to a replica.
//
// Only a traced window reads the clock. Each traced request is charged its
// own fetch_wait (submit to dequeue) plus the whole read's pread, decode and
// backoff, since it blocked on all of it.
func (s *Server) readWindow(disk int, reqs []fetchReq, retries int, sc *windowScratch) error {
	ctx := reqs[0].ctx
	sc.ids = sc.ids[:0]
	var tm *store.Timing
	var deq time.Time
	for _, req := range reqs {
		sc.ids = append(sc.ids, req.ids...)
		if req.tr != nil && tm == nil {
			tm, deq = new(store.Timing), s.cfg.clock()
		}
	}
	if cap(sc.recs) < len(sc.ids) {
		sc.recs = make([]geom.Flat, len(sc.ids))
	}
	sc.recs = sc.recs[:len(sc.ids)]

	// The runtime/trace region brackets the whole read (retries and backoff
	// included) so `go tool trace` shows each disk worker's duty cycle.
	// StartRegion is a no-op unless tracing is active.
	region := rtrace.StartRegion(ctx, "gridserver.fetchBatch")
	var pages int
	var err error
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if s.cfg.FetchTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.cfg.FetchTimeout)
		}
		err = actx.Err()
		for i := 0; err == nil && s.cfg.slowFetch > 0 && i < len(sc.ids); i++ {
			time.Sleep(s.cfg.slowFetch)
			err = actx.Err()
		}
		if err == nil {
			pages, err = s.st.ReadFlatsFromTimed(actx, disk, sc.ids, sc.recs, tm)
		}
		if cancel != nil {
			cancel()
		}
		if err == nil {
			break
		}
		transient := fault.IsInjected(err) ||
			(s.cfg.FetchTimeout > 0 && errors.Is(err, context.DeadlineExceeded))
		if !transient || attempt > retries || ctx.Err() != nil {
			break
		}
		s.met.diskRetries.Add(1)
		var backoffStart time.Time
		if tm != nil {
			backoffStart = s.cfg.clock()
		}
		serr := fault.Sleep(ctx, retryDelay(s.cfg.FetchBackoff, attempt))
		for _, req := range reqs {
			s.traceSince(req.tr, stageBackoff, backoffStart)
		}
		if serr != nil {
			break
		}
	}
	region.End()

	// A failed merged read charges nothing: its requests are read again
	// alone, and each one's fetch_wait then runs from submit to that read.
	if tm != nil && (err == nil || len(reqs) == 1) {
		for _, req := range reqs {
			if req.tr != nil {
				req.tr.add(stageFetchWait, deq.Sub(req.enq))
				req.tr.add(stagePread, tm.Pread)
				req.tr.add(stageDecode, tm.Decode)
			}
		}
	}
	if err != nil {
		return err
	}
	s.met.diskFetches[disk].Add(int64(len(sc.ids)))
	s.met.pagesRead.Add(int64(pages))
	if len(reqs) > 1 {
		s.met.mergedFetches.Add(int64(len(reqs)))
	}
	off := 0
	for _, req := range reqs {
		recs := make([]geom.Flat, len(req.ids))
		off += copy(recs, sc.recs[off:])
		rp := pages
		if len(reqs) > 1 {
			// Buckets never share pages, so each request's share of a
			// merged read is exactly its placements' page count.
			rp = 0
			for _, id := range req.ids {
				if pl, ok := s.st.Placement(id); ok {
					rp += pl.Pages
				}
			}
		}
		s.publishLeads(req.ids, recs)
		req.resp <- fetchResp{ids: req.ids, idxs: req.idxs, recs: recs, disk: disk, pages: rp}
	}
	return nil
}

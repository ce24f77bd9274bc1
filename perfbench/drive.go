package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/server"
)

// failedLatency stands for a failed read's latency: it misses any limit.
const failedLatency = time.Duration(math.MaxInt64)

// window is the slice of the timed phase latency percentiles are taken
// over; each reported percentile is the median over every worker's windows,
// so a burst from a neighbour on the shared machine moves a window, not the
// result.
const window = time.Second

// winStats collects one worker's latencies of one kind window by window.
// Only the current window's latencies are held; when it closes its p50 and
// p99 are kept. The benchmark's own memory thus stays flat through the
// phase: the server shares the process, and a growing heap would change how
// often the collector interrupts it.
type winStats struct {
	wins     int // whole windows in the phase; later ones are dropped
	cur      int // the current window
	buf      []time.Duration
	p50, p99 []float64 // per closed window, in ms
	n        int       // latencies recorded
}

func (w *winStats) add(lat time.Duration, win int) {
	if win != w.cur {
		w.close()
		w.cur = win
	}
	w.buf = append(w.buf, lat)
	w.n++
}

// close ends the current window.
func (w *winStats) close() {
	if len(w.buf) > 0 && w.cur < w.wins {
		slices.Sort(w.buf)
		w.p50 = append(w.p50, ms(quantile(w.buf, 0.50)))
		w.p99 = append(w.p99, ms(quantile(w.buf, 0.99)))
	}
	w.buf = w.buf[:0]
}

// medianOf returns the median of v, 0 when v is empty.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stream is one worker's ops. Read-only workloads cycle a pool whose
// answers the oracle computed in advance; writable ones draw ops from the
// generator as they go (so at must be called with 0, 1, 2, ...) and are
// checked against the write history afterwards.
type stream struct {
	pool []op
	want []fingerprint // parallel to pool
	gen  *opGen
}

func (s *stream) at(i int) op {
	if s.gen == nil {
		return s.pool[i%len(s.pool)]
	}
	return s.gen.next()
}

// readRec is one logged read of a writable workload: the op's index in the
// worker's stream, its time span and its answer.
type readRec struct {
	i    int
	b, e int64
	fp   fingerprint
}

// writeRec is one logged write.
type writeRec struct {
	kind       opKind
	key        geom.Point
	issue, ack int64
	failed     bool
}

// workerLog is what one worker measured in a phase.
type workerLog struct {
	ops      int
	readLat  winStats
	writeLat winStats
	failed   int
	errs     []string
	buckets  int64 // server-reported buckets over reads
	reads    []readRec
	writes   []writeRec
	tracer   *tracer
}

func (l *workerLog) fail(err error) {
	l.failed++
	if len(l.errs) < 3 {
		l.errs = append(l.errs, err.Error())
	}
}

// phase is one closed-loop run of every worker.
type phase struct {
	elapsed time.Duration
	logs    []*workerLog
}

// runPhase drives the instance with one closed-loop caller per stream. It
// stops after dur or, when counts is set, once each worker has run its count
// of ops. With sh set every op is traced.
func runPhase(in *instance, streams []*stream, dur time.Duration, counts []int, sh *shadow) *phase {
	p := &phase{logs: make([]*workerLog, len(streams))}
	start := time.Now()
	wins := int(dur / window)
	var wg sync.WaitGroup
	for w := range streams {
		l := &workerLog{readLat: winStats{wins: wins}, writeLat: winStats{wins: wins}}
		if sh != nil {
			l.tracer = &tracer{epoch: start}
		}
		p.logs[w] = l
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer l.readLat.close()
			defer l.writeLat.close()
			s := streams[w]
			for i := 0; ; i++ {
				if counts != nil && i >= counts[w] || time.Since(start) >= dur {
					return
				}
				o := s.at(i)
				b := time.Since(start)
				var a answer
				var err error
				if sh != nil {
					a, err = sh.run(l.tracer, in, o)
				} else {
					var info server.QueryInfo
					a, info, err = in.do(o)
					if !o.kind.isWrite() {
						l.buckets += int64(info.Buckets)
					}
				}
				e := time.Since(start)
				l.ops++
				l.record(s, i, o, a, err, b, e)
			}
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// record keeps an op's latency and checks or logs its answer.
func (l *workerLog) record(s *stream, i int, o op, a answer, err error, b, e time.Duration) {
	lat, win := e-b, int(e/window)
	if o.kind.isWrite() {
		l.writes = append(l.writes, writeRec{kind: o.kind, key: o.key, issue: int64(b), ack: int64(e), failed: err != nil})
		if err != nil {
			l.fail(err)
			lat = failedLatency
		}
		l.writeLat.add(lat, win)
		return
	}
	fp := fingerprintOf(o, a)
	if err == nil && s.gen == nil {
		if want := s.want[i%len(s.pool)]; fp != want {
			err = mismatch(o, fp, want)
		}
	}
	if err != nil {
		l.fail(err)
		lat = failedLatency
	}
	l.readLat.add(lat, win)
	if err == nil && s.gen != nil {
		l.reads = append(l.reads, readRec{i: i, b: int64(b), e: int64(e), fp: fp})
	}
}

// checkHistory validates every logged read of a writable phase against the
// phase's write history, and the server's final content. It returns the
// number of records the server holds at the end. A rejected read counts as
// failed and makes the run incorrect; its window's percentiles were taken
// before the check.
func (p *phase) checkHistory(in *instance) (int, error) {
	var writes []writeRec
	for _, l := range p.logs {
		writes = append(writes, l.writes...)
	}
	h := newHistory(in.grid, writes)
	for w, l := range p.logs {
		// The stream is drawn again from its seed to recover each op.
		g := newOpGen(in.wl, in.ds.Domain, in.ds.Records, in.seed, w)
		next := 0
		for _, r := range l.reads {
			var o op
			for ; next <= r.i; next++ {
				o = g.next()
			}
			if err := h.check(o, r.fp, r.b, r.e); err != nil {
				l.fail(err)
			}
		}
		l.reads = nil
	}
	all, _, err := in.cli.Range(in.ds.Domain)
	if err != nil {
		return 0, fmt.Errorf("final read: %w", err)
	}
	if err := h.checkFinal(all); err != nil {
		p.logs[0].fail(err)
	}
	return len(all), nil
}

// latencies holds a phase's windowed read and write percentiles.
type latencies struct {
	reads, writes                  int // latencies recorded
	readP50, readP99, wrP50, wrP99 []float64
}

// totals sums the workers' logs.
func (p *phase) totals() (ops, failed int, lat latencies, buckets int64, errs []string) {
	for _, l := range p.logs {
		ops += l.ops
		failed += l.failed
		lat.reads += l.readLat.n
		lat.writes += l.writeLat.n
		lat.readP50 = append(lat.readP50, l.readLat.p50...)
		lat.readP99 = append(lat.readP99, l.readLat.p99...)
		lat.wrP50 = append(lat.wrP50, l.writeLat.p50...)
		lat.wrP99 = append(lat.wrP99, l.writeLat.p99...)
		buckets += l.buckets
		errs = append(errs, l.errs...)
	}
	return
}

package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"pgridfile/internal/cache"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/server"
	"pgridfile/internal/store"
)

// spanName names the layer a span times.
type spanName uint8

const (
	spanOp spanName = iota // root: the whole traced op
	spanRoundTrip
	spanTranslate
	spanCache
	spanPread
	spanDecode
	spanPredicate
	spanEncode
	spanDecodeReply
	spanInsert
	spanDelete
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "round-trip", "translate", "cache", "pread", "decode", "predicate", "encode", "decode-reply", "insert", "delete"}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call. Start and end are nanoseconds since the tracer's
// epoch; parent indexes the same op's span list (-1 for the root).
type span struct {
	name       spanName
	parent     int32
	op         uint32
	start, end int64
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap one another; covered time is
// counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// keepOps bounds the ops per worker whose spans stay in memory for the
// span file; every op's spans are folded into the totals.
const keepOps = 10000

// tracer records one worker's spans. Each op's spans are folded into
// per-layer totals when the op ends; the first keepOps ops keep theirs.
type tracer struct {
	epoch time.Time
	spans []span
	first int // index of the current op's root
	op    uint32

	self      [numSpanNames]int64 // summed self time per span name
	opTime    int64               // summed root durations
	translate []int64             // translate self time per translate span
	writeLat  []int64             // insert and delete durations
	hitLat    []int64             // Acquire calls answered by a resident bucket
	pages     int64               // pages behind the pread and decode spans
	encRows   int64               // rows behind the encode spans
	decRows   int64               // rows behind the decode-reply spans

	// The encoded reply and its decoded form are reused across ops, as
	// the server reuses its response buffer and the client its result.
	reply   []byte
	decoded server.Result
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (an index into the current op's spans,
// -1 for the root) and returns its index.
func (t *tracer) begin(name spanName, parent int) int {
	if name == spanOp {
		t.first = len(t.spans)
	}
	p := int32(-1)
	if parent >= 0 {
		p = int32(parent)
	}
	t.spans = append(t.spans, span{name: name, parent: p, op: t.op, start: t.now()})
	return len(t.spans) - 1 - t.first
}

func (t *tracer) end(i int) { t.spans[t.first+i].end = t.now() }

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name spanName, parent int, start, end int64) {
	t.spans = append(t.spans, span{name: name, parent: int32(parent), op: t.op, start: start, end: end})
}

// finish closes the root and folds the op's self times into the totals.
func (t *tracer) finish() {
	t.end(0)
	ops := t.spans[t.first:]
	self := selfTimes(ops)
	for i, s := range ops {
		t.self[s.name] += self[i]
		switch s.name {
		case spanOp:
			continue
		case spanTranslate:
			t.translate = append(t.translate, self[i])
		case spanInsert, spanDelete:
			t.writeLat = append(t.writeLat, s.end-s.start)
		}
	}
	t.opTime += ops[0].end - ops[0].start
	t.op++
	if t.op > keepOps {
		t.spans = t.spans[:t.first]
	}
}

// merge adds another tracer's totals to t.
func (t *tracer) merge(o *tracer) {
	for i := range t.self {
		t.self[i] += o.self[i]
	}
	t.op += o.op
	t.opTime += o.opTime
	t.translate = append(t.translate, o.translate...)
	t.writeLat = append(t.writeLat, o.writeLat...)
	t.hitLat = append(t.hitLat, o.hitLat...)
	t.pages += o.pages
	t.encRows += o.encRows
	t.decRows += o.decRows
}

// shadow replays ops through the layers' public functions, in the order
// the server runs them, with a span around each call: translate on the
// grid, the bucket cache, pread and decode in the store, the predicate,
// encode and the reply decode. Each replay follows the op's real round
// trip to the server.
type shadow struct {
	st    *store.Store
	grid  *gridfile.File
	cache *cache.Cache
	// exact holds on a read-only layout: the replay reads the same pages
	// the server does, so its answers must match the served ones.
	exact bool
}

// openShadow opens the layout read-only, or a writable copy of it.
func openShadow(dir string, writable bool, cacheBytes int64) (*shadow, error) {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20 // the server's default budget
	}
	sh := &shadow{cache: cache.New(cacheBytes, 0), exact: !writable}
	var err error
	if writable {
		if sh.st, err = store.OpenWritable(dir); err != nil {
			return nil, err
		}
		sh.grid = sh.st.Grid()
		return sh, nil
	}
	if sh.st, err = store.Open(dir); err != nil {
		return nil, err
	}
	if sh.grid, err = store.OpenGrid(dir); err != nil {
		sh.st.Close()
		return nil, err
	}
	return sh, nil
}

func (sh *shadow) close() { sh.st.Close() }

// warm runs the same cache fill as the server's warm-up.
func (sh *shadow) warm(t *tracer) error {
	sh.st.RLockGrid()
	ids := sh.grid.BucketsInRange(sh.grid.Domain())
	sh.st.RUnlockGrid()
	_, err := sh.fetch(t, -1, ids, make([]geom.Flat, len(ids)))
	return err
}

// run traces one op: the round trip that answers it, then the shadow
// replay of the server's work on it.
func (sh *shadow) run(t *tracer, in *instance, o op) (answer, error) {
	root := t.begin(spanOp, -1)
	defer t.finish()
	rt := t.begin(spanRoundTrip, root)
	a, _, err := in.do(o)
	t.end(rt)
	if err != nil {
		return a, err
	}
	if o.kind.isWrite() {
		return a, sh.write(t, root, o)
	}
	verb, res, err := sh.read(t, root, o)
	if err != nil {
		return a, fmt.Errorf("traced replay: %w", err)
	}
	enc := t.begin(spanEncode, root)
	t.reply, err = server.AppendResult(t.reply[:0], verb, res)
	t.end(enc)
	if err != nil {
		return a, fmt.Errorf("traced replay: %w", err)
	}
	t.encRows += int64(len(res.Points))
	dec := t.begin(spanDecodeReply, root)
	err = server.DecodeResultInto(server.Frame{Verb: verb, Payload: t.reply}, &t.decoded)
	t.end(dec)
	t.decRows += int64(len(t.decoded.Points))
	switch {
	case err != nil:
	case t.decoded.Count != res.Count:
		err = fmt.Errorf("traced replay: reply decodes to %d records, encoded %d", t.decoded.Count, res.Count)
	case sh.exact && res.Count != a.count:
		err = fmt.Errorf("traced replay: %s answers %d records, the server %d", o.kind, res.Count, a.count)
	}
	return a, err
}

// write applies a mutation to the writable copy and drops the buckets it
// touched from the shadow cache.
func (sh *shadow) write(t *tracer, root int, o op) error {
	var dirty []int32
	if o.kind == opInsert {
		s := t.begin(spanInsert, root)
		ir, err := sh.st.Insert(context.Background(), o.key)
		t.end(s)
		if err != nil {
			return err
		}
		dirty = ir.Dirty()
	} else {
		s := t.begin(spanDelete, root)
		dr, err := sh.st.Delete(context.Background(), o.key)
		t.end(s)
		if err != nil {
			return err
		}
		dirty = dr.Dirty()
		if dr.Merged {
			dirty = append(dirty, dr.Dead)
		}
	}
	c := t.begin(spanCache, root)
	sh.cache.Invalidate(dirty...)
	t.end(c)
	return nil
}

// translate resolves a query box to bucket ids under the grid lock.
func (sh *shadow) translate(t *tracer, root int, q geom.Rect) []int32 {
	s := t.begin(spanTranslate, root)
	sh.st.RLockGrid()
	ids := sh.grid.BucketsInRange(q)
	sh.st.RUnlockGrid()
	t.end(s)
	return ids
}

// read replays one read and returns the encoded answer's verb and content.
func (sh *shadow) read(t *tracer, root int, o op) (server.Verb, server.Result, error) {
	var res server.Result
	if o.kind == opKNN {
		pts, err := sh.knn(t, root, o.key)
		res.Points, res.Count = pts, len(pts)
		return server.VerbPoints, res, err
	}
	q, match := predicateOf(o, sh.grid.Domain())
	var ids []int32
	if o.kind == opPoint {
		s := t.begin(spanTranslate, root)
		sh.st.RLockGrid()
		id, ok := sh.grid.BucketAt(o.key)
		sh.st.RUnlockGrid()
		t.end(s)
		if !ok {
			return 0, res, fmt.Errorf("key %v outside the domain", o.key)
		}
		ids = []int32{id}
	} else {
		ids = sh.translate(t, root, q)
	}
	recs := make([]geom.Flat, len(ids))
	if _, err := sh.fetch(t, root, ids, recs); err != nil {
		return 0, res, err
	}
	p := t.begin(spanPredicate, root)
	for _, rec := range recs {
		for i := 0; i < rec.Len(); i++ {
			if row := rec.Row(i); match(row) {
				res.Points = append(res.Points, row)
			}
		}
	}
	res.Count = len(res.Points)
	t.end(p)
	if o.kind == opCount {
		res.Points = nil
		return server.VerbCount, res, nil
	}
	return server.VerbPoints, res, nil
}

// knn grows a box around the key until the k-th nearest candidate lies
// inside it, as the server does.
func (sh *shadow) knn(t *tracer, root int, key geom.Point) ([]geom.Point, error) {
	dom := sh.grid.Domain()
	sh.st.RLockGrid()
	cells := sh.grid.CellSizes()
	sh.st.RUnlockGrid()
	r := 0.0
	for d, n := range cells {
		r = math.Max(r, dom[d].Length()/float64(n))
	}
	type cand struct {
		row  []float64
		dist float64
	}
	fetched := make(map[int32]geom.Flat)
	for {
		q := make(geom.Rect, len(key))
		covers := true
		for d := range key {
			q[d] = geom.Interval{Lo: math.Max(key[d]-r, dom[d].Lo), Hi: math.Min(key[d]+r, dom[d].Hi)}
			if q[d].Lo > dom[d].Lo || q[d].Hi < dom[d].Hi {
				covers = false
			}
		}
		var fresh []int32
		for _, id := range sh.translate(t, root, q) {
			if _, ok := fetched[id]; !ok {
				fresh = append(fresh, id)
			}
		}
		recs := make([]geom.Flat, len(fresh))
		if _, err := sh.fetch(t, root, fresh, recs); err != nil {
			return nil, err
		}
		for i, id := range fresh {
			fetched[id] = recs[i]
		}
		p := t.begin(spanPredicate, root)
		var cands []cand
		for _, rec := range fetched {
			for i := 0; i < rec.Len(); i++ {
				row := rec.Row(i)
				cands = append(cands, cand{row, dist(row, key)})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
		done := covers || (len(cands) >= knnK && cands[knnK-1].dist <= r)
		var pts []geom.Point
		if done {
			for _, c := range cands[:min(knnK, len(cands))] {
				pts = append(pts, c.row)
			}
		}
		t.end(p)
		if done {
			return pts, nil
		}
		r *= 2
	}
}

// fetch fills recs (parallel to ids) through the cache: resident buckets
// come back at once; misses are read from disk in one batch per owner
// disk, as the server's scheduler groups them, and published to the cache.
// It returns the pages read.
func (sh *shadow) fetch(t *tracer, root int, ids []int32, recs []geom.Flat) (int, error) {
	var c int
	if root >= 0 {
		c = t.begin(spanCache, root)
		defer t.end(c)
	}
	type lead struct {
		ids  []int32
		idxs []int
	}
	leads := make(map[int]*lead)
	type join struct {
		idx int
		p   *cache.Pending
	}
	var joins []join
	var firstErr error
	for i, id := range ids {
		t0 := t.now()
		r := sh.cache.Acquire(id)
		switch {
		case r.Hit:
			t.hitLat = append(t.hitLat, t.now()-t0)
			recs[i] = r.Rec
			continue
		case r.Pending != nil:
			joins = append(joins, join{i, r.Pending})
			continue
		}
		disk, ok := sh.st.PickOwner(id, nil)
		if !ok {
			firstErr = fmt.Errorf("bucket %d not in store", id)
			sh.cache.Complete(id, geom.Flat{}, 0, firstErr)
			continue
		}
		l := leads[disk]
		if l == nil {
			l = &lead{}
			leads[disk] = l
		}
		l.ids = append(l.ids, id)
		l.idxs = append(l.idxs, i)
	}
	pages := 0
	for disk := 0; disk < sh.st.Disks(); disk++ {
		l := leads[disk]
		if l == nil {
			continue
		}
		out := make([]geom.Flat, len(l.ids))
		var tm store.Timing
		t0 := t.now()
		n, err := sh.st.ReadFlatsFromTimed(context.Background(), disk, l.ids, out, &tm)
		t1 := t.now()
		if root >= 0 {
			// Timing reports totals, so the two spans are laid end to end
			// from the call's start, clipped to the call.
			mid := min(t0+int64(tm.Pread), t1)
			t.add(spanPread, c, t0, mid)
			t.add(spanDecode, c, mid, min(mid+int64(tm.Decode), t1))
			t.pages += int64(n)
		}
		pages += n
		for j, id := range l.ids {
			if err != nil {
				sh.cache.Complete(id, geom.Flat{}, 0, err)
				continue
			}
			pl, _ := sh.st.Placement(id)
			sh.cache.Complete(id, out[j], pl.Pages, nil)
			recs[l.idxs[j]] = out[j]
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, j := range joins {
		rec, _, err := j.p.Wait(context.Background())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		recs[j.idx] = rec
	}
	return pages, firstErr
}

// writeSpans writes every worker's spans as CSV: op, span, parent, name,
// start_ns, end_ns. Span and parent index the op's own spans.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker,op,span,parent,name,start_ns,end_ns")
	for wi, t := range tracers {
		first := 0
		for i, s := range t.spans {
			if s.parent < 0 {
				first = i
			}
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", wi, s.op, i-first, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

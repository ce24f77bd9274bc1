package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
)

// fingerprint summarises a multiset of points: a dropped or duplicated
// record changes the count, a swapped one the sum.
type fingerprint struct {
	n   int
	sum uint64
}

func (f *fingerprint) add(p []float64) {
	f.n++
	f.sum += hashPoint(p)
}

func hashPoint(p []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range p {
		h ^= math.Float64bits(v)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

// fingerprintOf summarises an answer; range-count answers carry only the
// count.
func fingerprintOf(o op, a answer) fingerprint {
	f := fingerprint{n: a.count}
	if o.kind != opCount {
		f = fingerprint{}
		for _, p := range a.pts {
			f.add(p)
		}
	}
	return f
}

// predicateOf returns the query box that bounds a read's matches and the
// exact match test. kNN has neither.
func predicateOf(o op, dom geom.Rect) (geom.Rect, func(p []float64) bool) {
	switch o.kind {
	case opRange, opCount:
		return o.rect, func(p []float64) bool { return o.rect.ContainsPoint(p) }
	case opPoint:
		q := make(geom.Rect, len(o.key))
		for d, v := range o.key {
			q[d] = geom.Interval{Lo: v, Hi: v}
		}
		return q, func(p []float64) bool { return p[0] == o.key[0] && p[1] == o.key[1] }
	case opPartial:
		q := make(geom.Rect, len(o.key))
		for d, v := range o.key {
			if math.IsNaN(v) {
				q[d] = dom[d]
			} else {
				q[d] = geom.Interval{Lo: v, Hi: v}
			}
		}
		return q, func(p []float64) bool { return q.ContainsPoint(p) }
	}
	panic(fmt.Sprintf("predicate: %s has no box", o.kind))
}

// matching calls fn for every record of the in-memory grid that the read
// matches.
func matching(f *gridfile.File, o op, fn func(key []float64)) {
	q, match := predicateOf(o, f.Domain())
	for _, id := range f.BucketsInRange(q) {
		f.ForEachRecordInBucket(id, func(key []float64, _ []byte) {
			if match(key) {
				fn(key)
			}
		})
	}
}

// expect computes a read's answer on the in-memory grid.
func expect(f *gridfile.File, o op) fingerprint {
	var fp fingerprint
	if o.kind == opKNN {
		for _, n := range f.NearestNeighbors(o.key, knnK) {
			fp.add(n.Record.Key)
		}
		return fp
	}
	matching(f, o, fp.add)
	if o.kind == opCount {
		fp.sum = 0
	}
	return fp
}

func mismatch(o op, got, want fingerprint) error {
	return fmt.Errorf("%s answer has %d records (hash %x), oracle has %d (hash %x)", o.kind, got.n, got.sum, want.n, want.sum)
}

// key2 is a 2-D key usable as a map key; every workload is 2-D.
type key2 [2]float64

func toKey(p []float64) key2 { return key2{p[0], p[1]} }

// keyLife is one inserted key's history, in nanoseconds since the phase
// began. A failed write's fate is unknown: the key may or may not be live.
type keyLife struct {
	key                       key2
	insIssue, insAck          int64
	delIssue, delAck          int64
	insertFailed, hasDeletion bool
	deleteFailed              bool
}

// mustHave reports whether the key was surely live over the whole of
// [b, e]: its insert was acknowledged before b and no delete was issued
// before e.
func (l *keyLife) mustHave(b, e int64) bool {
	return !l.insertFailed && l.insAck < b && (!l.hasDeletion || l.delIssue > e)
}

// mayHave reports whether the key may appear in an answer over [b, e]: its
// insert was issued before e and no delete was acknowledged before b.
func (l *keyLife) mayHave(b, e int64) bool {
	return l.insIssue < e && (!l.hasDeletion || l.deleteFailed || l.delAck > b)
}

// history is the write history of one phase, built after the phase from
// the workers' logs. The initial records are never deleted: deletes target
// keys inserted during the phase.
type history struct {
	initial *gridfile.File
	byKey   map[key2]*keyLife
	byX     []*keyLife // inserted keys sorted by first coordinate
}

func newHistory(initial *gridfile.File, writes []writeRec) *history {
	h := &history{initial: initial, byKey: make(map[key2]*keyLife)}
	for _, w := range writes {
		k := toKey(w.key)
		l := h.byKey[k]
		if l == nil {
			l = &keyLife{key: k}
			h.byKey[k] = l
			h.byX = append(h.byX, l)
		}
		if w.kind == opInsert {
			l.insIssue, l.insAck, l.insertFailed = w.issue, w.ack, w.failed
		} else {
			l.hasDeletion = true
			l.delIssue, l.delAck, l.deleteFailed = w.issue, w.ack, w.failed
		}
	}
	sort.Slice(h.byX, func(i, j int) bool { return h.byX[i].key[0] < h.byX[j].key[0] })
	return h
}

// inX returns the inserted keys whose first coordinate lies in [lo, hi].
func (h *history) inX(lo, hi float64) []*keyLife {
	i := sort.Search(len(h.byX), func(i int) bool { return h.byX[i].key[0] >= lo })
	j := sort.Search(len(h.byX), func(i int) bool { return h.byX[i].key[0] > hi })
	return h.byX[i:j]
}

// maxUncertain bounds the keys whose presence a read may go either way on;
// with two callers a read overlaps at most a few writes.
const maxUncertain = 16

// check validates one read that ran over [b, e]: its answer must equal the
// answer over the records surely live in that window plus some subset of
// the records that may or may not have been live. Every record acknowledged
// before the read is therefore present, nothing unissued or deleted before
// it appears, and nothing appears twice.
func (h *history) check(o op, got fingerprint, b, e int64) error {
	if o.kind == opKNN {
		return h.checkKNN(o, got, b, e)
	}
	var must fingerprint
	matching(h.initial, o, must.add)
	var maybe []*keyLife
	q, match := predicateOf(o, h.initial.Domain())
	for _, l := range h.inX(q[0].Lo, q[0].Hi) {
		switch {
		case !match(l.key[:]):
		case l.mustHave(b, e):
			must.add(l.key[:])
		case l.mayHave(b, e):
			maybe = append(maybe, l)
		}
	}
	if o.kind == opCount {
		if got.n < must.n || got.n > must.n+len(maybe) {
			return fmt.Errorf("range-count answered %d, live records in the box were between %d and %d", got.n, must.n, must.n+len(maybe))
		}
		return nil
	}
	if len(maybe) > maxUncertain {
		return fmt.Errorf("%s overlapped %d uncertain writes, too many to check", o.kind, len(maybe))
	}
	for set := 0; set < 1<<len(maybe); set++ {
		want := must
		for i, l := range maybe {
			if set&(1<<i) != 0 {
				want.add(l.key[:])
			}
		}
		if want == got {
			return nil
		}
	}
	return mismatch(o, got, must)
}

// checkKNN accepts the k nearest records of any live set consistent with
// the history.
func (h *history) checkKNN(o op, got fingerprint, b, e int64) error {
	type cand struct {
		key  []float64
		dist float64
	}
	var must []cand
	for _, n := range h.initial.NearestNeighbors(o.key, knnK) {
		must = append(must, cand{n.Record.Key, n.Distance})
	}
	far := math.Inf(1)
	if len(must) == knnK {
		far = must[knnK-1].dist
	}
	var maybe []cand
	for _, l := range h.inX(o.key[0]-far, o.key[0]+far) {
		d := dist(l.key[:], o.key)
		switch {
		case d > far:
		case l.mustHave(b, e):
			must = append(must, cand{l.key[:], d})
		case l.mayHave(b, e):
			maybe = append(maybe, cand{l.key[:], d})
		}
	}
	if len(maybe) > maxUncertain {
		return fmt.Errorf("knn overlapped %d uncertain writes, too many to check", len(maybe))
	}
	var first fingerprint
	for set := 0; set < 1<<len(maybe); set++ {
		cands := append([]cand(nil), must...)
		for i, c := range maybe {
			if set&(1<<i) != 0 {
				cands = append(cands, c)
			}
		}
		slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
		var want fingerprint
		for _, c := range cands[:min(knnK, len(cands))] {
			want.add(c.key)
		}
		if set == 0 {
			first = want
		}
		if want == got {
			return nil
		}
	}
	return mismatch(o, got, first)
}

// checkFinal compares the server's whole content after the phase with the
// initial records plus acknowledged inserts minus acknowledged deletes.
// Keys whose writes failed may be present or not.
func (h *history) checkFinal(all []geom.Point) error {
	want := make(map[key2]int, h.initial.Len()+len(h.byKey))
	h.initial.Scan(func(key []float64, _ []byte) bool {
		want[toKey(key)]++
		return true
	})
	for k, l := range h.byKey {
		if !l.insertFailed && !l.deleteFailed && !l.hasDeletion {
			want[k]++
		}
	}
	for _, p := range all {
		k := toKey(p)
		if want[k] == 0 {
			l := h.byKey[k]
			if l != nil && (l.insertFailed || l.deleteFailed) {
				continue
			}
			if l != nil && l.hasDeletion {
				return fmt.Errorf("final content holds %v, whose delete was acknowledged", p)
			}
			return fmt.Errorf("final content holds %v, which was never stored or is held twice", p)
		}
		want[k]--
	}
	for k, n := range want {
		if n > 0 {
			return fmt.Errorf("final content misses %v", k)
		}
	}
	return nil
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

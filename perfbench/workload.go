package main

import (
	"fmt"
	"math"
	"math/rand"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// Shared shape of every workload.
const (
	disks       = 8    // disks per layout, all declustered by minimax
	workers     = 2    // closed-loop callers, one connection each
	rangeRatio  = 0.02 // volume ratio of the square range queries
	knnK        = 5
	warmReads   = 250 // untimed reads per worker after the cache fill
	maxPoolOps  = 16384
	poolSalt    = 7919 // separates the warm-up streams from the timed ones
	defaultSets = 9    // set-ups per run; setup_s is their median
)

// workload is one traffic mix over one layout.
type workload struct {
	name    string
	dataset string // "uniform.2d" or "hot.2d"
	records int
	// replicas is the copies per bucket; >1 layouts are opened writable.
	replicas int
	// cacheDiv, when positive, sets the cache budget to the on-disk bytes
	// divided by cacheDiv; zero keeps the server's default budget.
	cacheDiv int
	// insertPct and deletePct are the write shares of the mix, in percent;
	// the rest is the read mix.
	insertPct, deletePct int
	setups               int
}

var workloads = []workload{
	// The cache answers every read, so translate, cache hit, predicate,
	// encode, wire and dispatch do the work and the store almost none.
	{
		name:     "scan-hot",
		dataset:  "uniform.2d",
		records:  10000,
		replicas: 1,
		setups:   defaultSets,
	},
	// The cache holds a twentieth of the page-file bytes (about a quarter
	// of the decoded records) and ranges land uniformly, so most bucket
	// fetches reach the page files: pread, decode, span merging and
	// declustering quality dominate.
	{
		name:     "scan-cold",
		dataset:  "hot.2d",
		records:  200000,
		replicas: 1,
		cacheDiv: 20,
		setups:   5,
	},
	// Writes beside reads: journal fsync, shadow rewrites, splits and
	// cache invalidation all active. Not gated in BENCHMARK.json: its
	// throughput follows the shared disk's fsync latency.
	{
		name:      "ingest-mix",
		dataset:   "uniform.2d",
		records:   10000,
		replicas:  2,
		insertPct: 15,
		deletePct: 5,
		setups:    defaultSets,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) writable() bool { return w.insertPct+w.deletePct > 0 }

// generate makes the workload's records from the seed.
func (w workload) generate(seed int64) (*synth.Dataset, error) {
	switch w.dataset {
	case "uniform.2d":
		return synth.Uniform2D(w.records, seed), nil
	case "hot.2d":
		return synth.Hotspot2D(w.records, seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", w.dataset)
}

type opKind uint8

const (
	opRange opKind = iota
	opCount
	opPoint
	opKNN
	opPartial
	opInsert
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"range", "range-count", "point", "knn", "partial-match", "insert", "delete"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

// op is one request of a worker's stream.
type op struct {
	kind opKind
	rect geom.Rect  // range, range-count
	key  geom.Point // point, kNN centre, partial-match pattern (NaN = unspecified), write key
}

// opGen produces one worker's op stream. The stream depends only on the
// workload, the records, the seed and the worker index, never on timing:
// deletes pick among keys the same worker inserted earlier in its stream,
// which its closed loop has already had acknowledged.
type opGen struct {
	wl   workload
	dom  geom.Rect
	recs []gridfile.Record
	rng  *rand.Rand
	side float64
	own  []geom.Point // this worker's inserted, not yet deleted keys
}

func newOpGen(wl workload, dom geom.Rect, recs []gridfile.Record, seed int64, worker int) *opGen {
	return &opGen{
		wl:   wl,
		dom:  dom,
		recs: recs,
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(worker)*7 + 1)),
		side: math.Pow(rangeRatio, 1/float64(dom.Dim())),
	}
}

// next returns the stream's next op.
func (g *opGen) next() op {
	if w := g.rng.Intn(100); w < g.wl.insertPct+g.wl.deletePct {
		if w >= g.wl.insertPct && len(g.own) > 0 {
			i := g.rng.Intn(len(g.own))
			key := g.own[i]
			g.own[i] = g.own[len(g.own)-1]
			g.own = g.own[:len(g.own)-1]
			return op{kind: opDelete, key: key}
		}
		key := g.uniform()
		g.own = append(g.own, key)
		return op{kind: opInsert, key: key}
	}
	return g.read()
}

// read draws from the read mix: 30% range, 30% range-count, 20% point,
// 10% kNN and 10% partial-match.
func (g *opGen) read() op {
	switch w := g.rng.Intn(100); {
	case w < 60:
		kind := opRange
		if w >= 30 {
			kind = opCount
		}
		c := g.uniform()
		q := make(geom.Rect, len(c))
		for d := range g.dom {
			half := g.side * g.dom[d].Length() / 2
			q[d] = geom.Interval{Lo: math.Max(c[d]-half, g.dom[d].Lo), Hi: math.Min(c[d]+half, g.dom[d].Hi)}
		}
		return op{kind: kind, rect: q}
	case w < 80:
		return op{kind: opPoint, key: g.record()}
	case w < 90:
		return op{kind: opKNN, key: g.uniform()}
	default:
		key := g.record()
		key[g.rng.Intn(len(key))] = math.NaN()
		return op{kind: opPartial, key: key}
	}
}

// uniform draws a point uniformly over the domain: range centres, kNN
// centres and fresh insert keys (uniform.2d is itself uniform).
func (g *opGen) uniform() geom.Point {
	p := make(geom.Point, g.dom.Dim())
	for d := range g.dom {
		p[d] = g.dom[d].Lo + g.rng.Float64()*g.dom[d].Length()
	}
	return p
}

// record copies the key of a random stored record, so point and
// partial-match queries find data.
func (g *opGen) record() geom.Point {
	return append(geom.Point(nil), g.recs[g.rng.Intn(len(g.recs))].Key...)
}

// take returns the next n ops of the stream.
func (g *opGen) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

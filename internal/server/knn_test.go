package server

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// knnProbe replays the server's kNN probe schedule against the in-memory
// grid: the same initial radius and doubling, and the same stopping rule
// over every row of every bucket the probes touched. It returns the ids of
// those buckets, which are exactly the buckets a kNN query must fetch.
func knnProbe(f *gridfile.File, key geom.Point, k int) []int32 {
	dom := f.Domain()
	r := 0.0
	for d, n := range f.CellSizes() {
		r = math.Max(r, dom[d].Length()/float64(n))
	}
	if r <= 0 {
		r = 1
	}
	seen := map[int32]bool{}
	var ids []int32
	var dists []float64
	for {
		q := make(geom.Rect, len(key))
		covers := true
		for d := range key {
			q[d] = geom.Interval{Lo: math.Max(key[d]-r, dom[d].Lo), Hi: math.Min(key[d]+r, dom[d].Hi)}
			if q[d].Lo > dom[d].Lo || q[d].Hi < dom[d].Hi {
				covers = false
			}
		}
		for _, id := range f.BucketsInRange(q) {
			if seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
			f.ForEachRecordInBucket(id, func(row []float64, _ []byte) {
				s := 0.0
				for d := range row {
					s += (row[d] - key[d]) * (row[d] - key[d])
				}
				dists = append(dists, math.Sqrt(s))
			})
		}
		slices.Sort(dists)
		if covers || (len(dists) >= k && dists[k-1] <= r) {
			return ids
		}
		r *= 2
	}
}

// knnKeys returns the query keys the kNN tests use: the domain's corners,
// the midpoints of its edges, its centre, stored records (distance 0) and
// uniform random points.
func knnKeys(f *gridfile.File, rng *rand.Rand) []geom.Point {
	dom := f.Domain()
	lo, hi := dom[0], dom[1]
	mx, my := (lo.Lo+lo.Hi)/2, (hi.Lo+hi.Hi)/2
	keys := []geom.Point{
		{lo.Lo, hi.Lo}, {lo.Lo, hi.Hi}, {lo.Hi, hi.Lo}, {lo.Hi, hi.Hi},
		{mx, hi.Lo}, {mx, hi.Hi}, {lo.Lo, my}, {lo.Hi, my},
		{mx, my},
	}
	var recs []geom.Point
	f.Scan(func(key []float64, _ []byte) bool {
		recs = append(recs, slices.Clone(geom.Point(key)))
		return true
	})
	for i := 0; i < 3; i++ {
		keys = append(keys, recs[rng.Intn(len(recs))])
	}
	for i := 0; i < 4; i++ {
		keys = append(keys, geom.Point{
			lo.Lo + rng.Float64()*lo.Length(),
			hi.Lo + rng.Float64()*hi.Length(),
		})
	}
	return keys
}

// TestKNNMatchesOracle checks every kNN answer against the grid file's own
// nearest-neighbour search and every kNN's I/O against the probe schedule:
// the answer is the oracle's point multiset, nearest first, with no row
// twice; Info.Buckets is the number of distinct buckets the probes touched
// and Info.Pages the pages of those read from disk (all of them with the
// cache off; with it on, those of buckets no earlier query loaded).
func TestKNNMatchesOracle(t *testing.T) {
	layouts := []struct {
		name string
		data *synth.Dataset
	}{
		{"uniform", synth.Uniform2D(1500, 11)},
		{"hot", synth.Hotspot2D(1500, 12)},
	}
	for _, l := range layouts {
		f, err := l.data.Build()
		if err != nil {
			t.Fatal(err)
		}
		keys := knnKeys(f, rand.New(rand.NewSource(5)))
		for _, r := range []int{1, 2} {
			dir, m := writeLayout(t, f, "minimax", 4, r)
			pages := map[int32]int{}
			for _, pl := range m.Buckets {
				pages[pl.ID] = pl.Pages
			}
			for _, cacheBytes := range []int64{0, -1} {
				t.Run(fmt.Sprintf("%s/r=%d/cache=%d", l.name, r, cacheBytes), func(t *testing.T) {
					s, err := OpenDir(dir, Config{CacheBytes: cacheBytes})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					c := newTestClient(t, s, ClientConfig{})
					loaded := map[int32]bool{} // buckets already in the cache
					for _, k := range []int{1, 5, 64, 4096} {
						for _, key := range keys {
							pts, info, err := c.KNN(key, k)
							if err != nil {
								t.Fatalf("knn %v k=%d: %v", key, k, err)
							}
							checkKNNAnswer(t, f, key, k, pts)
							ids := knnProbe(f, key, k)
							wantPages := 0
							for _, id := range ids {
								if cacheBytes < 0 || !loaded[id] {
									wantPages += pages[id]
								}
								loaded[id] = true
							}
							if info.Buckets != len(ids) || info.Pages != wantPages {
								t.Fatalf("knn %v k=%d: fetched %d buckets, %d pages; want %d, %d",
									key, k, info.Buckets, info.Pages, len(ids), wantPages)
							}
						}
					}
				})
			}
		}
	}
}

// checkKNNAnswer compares one kNN answer with gridfile.NearestNeighbors.
func checkKNNAnswer(t *testing.T, f *gridfile.File, key geom.Point, k int, pts []geom.Point) {
	t.Helper()
	want := f.NearestNeighbors(key, k)
	if len(pts) != len(want) {
		t.Fatalf("knn %v k=%d: %d points, want %d", key, k, len(pts), len(want))
	}
	cmpPoint := func(a, b geom.Point) int { return slices.Compare(a, b) }
	got := slices.Clone(pts)
	slices.SortFunc(got, cmpPoint)
	for i := 1; i < len(got); i++ {
		if slices.Equal(got[i-1], got[i]) {
			t.Fatalf("knn %v k=%d: %v returned twice", key, k, got[i])
		}
	}
	exp := make([]geom.Point, len(want))
	for i, n := range want {
		exp[i] = n.Record.Key
	}
	slices.SortFunc(exp, cmpPoint)
	for i := range got {
		if !slices.Equal(got[i], exp[i]) {
			t.Fatalf("knn %v k=%d: answer differs from the oracle at sorted row %d: %v, want %v",
				key, k, i, got[i], exp[i])
		}
	}
	for i := 1; i < len(pts); i++ {
		if euclidean(pts[i], key) < euclidean(pts[i-1], key) {
			t.Fatalf("knn %v k=%d: row %d is nearer than row %d", key, k, i, i-1)
		}
	}
}

func euclidean(a, b geom.Point) float64 {
	s := 0.0
	for i := range a {
		s += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Sqrt(s)
}

// knnBenchServer opens a 10k-record uniform 2-D layout over 4 disks (the
// shape of perfbench's scan-hot workload) with the default cache, encodes
// one kNN request frame per key, and serves each once so every bucket the
// requests touch is resident.
func knnBenchServer(tb testing.TB) (*Server, []Frame) {
	tb.Helper()
	f, err := synth.Uniform2D(10000, 3).Build()
	if err != nil {
		tb.Fatal(err)
	}
	dir, _ := writeLayout(tb, f, "minimax", 4, 1)
	s, err := OpenDir(dir, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(9))
	frames := make([]Frame, 64)
	var buf []byte
	for i := range frames {
		key := geom.Point{rng.Float64() * 2000, rng.Float64() * 2000}
		if frames[i], err = EncodeRequest(Request{Verb: VerbKNN, Key: key, K: 5}); err != nil {
			tb.Fatal(err)
		}
		buf = s.serveFrame(buf[:0], frames[i], 0, false)
		if Verb(buf[4]) != VerbPoints {
			tb.Fatalf("warm-up knn %v answered verb %d", key, buf[4])
		}
	}
	return s, frames
}

// BenchmarkKNNQuery measures one kNN (k=5) through the server's request
// path, decode to encoded reply, without the network: the translate, cache
// and predicate layers of a query whose buckets are all resident.
func BenchmarkKNNQuery(b *testing.B) {
	s, frames := knnBenchServer(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.serveFrame(buf[:0], frames[i%len(frames)], 0, false)
	}
}

// TestKNNAllocs bounds the allocations of one warm-cache kNN request.
func TestKNNAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, frames := knnBenchServer(t)
	var buf []byte
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = s.serveFrame(buf[:0], frames[i%len(frames)], 0, false)
		i++
	})
	const budget = 2 // the cell-size vector and the translation's cell cursor
	if allocs > budget {
		t.Fatalf("warm kNN request allocates %.1f times, budget %d", allocs, budget)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]     children b1 [15,25], b2 [20,35] (overlapping)
	//   c [30,60]     overlaps a
	//   d [90,120]    runs past the root's end
	spans := []span{
		{name: spanOp, parent: -1, start: 0, end: 100},
		{name: spanCache, parent: 0, start: 10, end: 40},
		{name: spanPread, parent: 1, start: 15, end: 25},
		{name: spanDecode, parent: 1, start: 20, end: 35},
		{name: spanEncode, parent: 0, start: 30, end: 60},
		{name: spanRoundTrip, parent: 0, start: 90, end: 120},
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,60] and [90,100] = 100-50-10.
	// a: 30 minus the union [15,35]. c and d have no children.
	want := []int64{40, 10, 10, 15, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// Sequential, properly nested children: the self times add up to the
	// root's duration, which is the identity the traced run reports.
	spans := []span{
		{name: spanOp, parent: -1, start: 0, end: 1000},
		{name: spanRoundTrip, parent: 0, start: 5, end: 400},
		{name: spanTranslate, parent: 0, start: 410, end: 430},
		{name: spanCache, parent: 0, start: 430, end: 800},
		{name: spanPread, parent: 3, start: 500, end: 600},
		{name: spanDecode, parent: 3, start: 600, end: 700},
		{name: spanPredicate, parent: 0, start: 800, end: 900},
		{name: spanEncode, parent: 0, start: 900, end: 950},
		{name: spanDecodeReply, parent: 0, start: 950, end: 990},
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000", sum)
	}
}

// smallGrid loads a few hundred uniform records.
func smallGrid(t *testing.T) (*synth.Dataset, *gridfile.File) {
	t.Helper()
	ds := synth.Uniform2D(600, 3)
	f, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds, f
}

// rangeAnswer returns the exact answer of a range op on f.
func rangeAnswer(f *gridfile.File, q geom.Rect) []geom.Point {
	var pts []geom.Point
	for _, r := range f.RangeSearch(q) {
		pts = append(pts, r.Key)
	}
	return pts
}

func TestOracleRejectsDroppedAndDuplicated(t *testing.T) {
	ds, f := smallGrid(t)
	o := op{kind: opRange, rect: geom.NewRect([]float64{200, 200}, []float64{1400, 1400})}
	pts := rangeAnswer(f, o.rect)
	if len(pts) < 2 {
		t.Fatalf("range holds %d records, want several", len(pts))
	}
	cases := map[string][]geom.Point{
		"dropped":    pts[1:],
		"duplicated": append(append([]geom.Point(nil), pts...), pts[0]),
		"swapped":    append(append([]geom.Point(nil), pts[1:]...), ds.Records[0].Key),
	}
	want := expect(f, o)
	if got := fingerprintOf(o, answer{pts: pts}); got != want {
		t.Fatalf("exact answer rejected: %+v vs %+v", got, want)
	}
	h := newHistory(f, nil)
	if err := h.check(o, fingerprintOf(o, answer{pts: pts}), 10, 20); err != nil {
		t.Fatalf("history check rejects the exact answer: %v", err)
	}
	for name, bad := range cases {
		fp := fingerprintOf(o, answer{pts: bad})
		if fp == want {
			t.Errorf("%s answer passes the static oracle", name)
		}
		if err := h.check(o, fp, 10, 20); err == nil {
			t.Errorf("%s answer passes the history oracle", name)
		}
	}
}

func TestHistoryOracle(t *testing.T) {
	_, f := smallGrid(t)
	o := op{kind: opRange, rect: geom.NewRect([]float64{0, 0}, []float64{1000, 1000})}
	base := rangeAnswer(f, o.rect)
	acked := geom.Point{500.25, 500.25}   // inserted and acked before the read
	racing := geom.Point{600.25, 600.25}  // inserted while the read ran
	gone := geom.Point{700.25, 700.25}    // inserted, then deleted before the read
	outside := geom.Point{1500.5, 1500.5} // acked, but outside the box
	h := newHistory(f, []writeRec{
		{kind: opInsert, key: acked, issue: 1, ack: 2},
		{kind: opInsert, key: outside, issue: 1, ack: 2},
		{kind: opInsert, key: gone, issue: 3, ack: 4},
		{kind: opDelete, key: gone, issue: 5, ack: 6},
		{kind: opInsert, key: racing, issue: 12, ack: 18},
	})
	with := func(extra ...geom.Point) fingerprint {
		return fingerprintOf(o, answer{pts: append(append([]geom.Point(nil), base...), extra...)})
	}
	for name, c := range map[string]struct {
		fp fingerprint
		ok bool
	}{
		"acked":               {with(acked), true},
		"acked and racing":    {with(acked, racing), true},
		"missing acked":       {with(), false},
		"acked twice":         {with(acked, acked), false},
		"deleted key":         {with(acked, gone), false},
		"key outside the box": {with(acked, outside), false},
	} {
		err := h.check(o, c.fp, 10, 20)
		if (err == nil) != c.ok {
			t.Errorf("%s: check returned %v, want ok=%v", name, err, c.ok)
		}
	}

	count := op{kind: opCount, rect: o.rect}
	for n, ok := range map[int]bool{len(base): false, len(base) + 1: true, len(base) + 2: true, len(base) + 3: false} {
		if err := h.check(count, fingerprint{n: n}, 10, 20); (err == nil) != ok {
			t.Errorf("count %d: check returned %v, want ok=%v", n, err, ok)
		}
	}

	var all []geom.Point
	f.Scan(func(key []float64, _ []byte) bool {
		all = append(all, append(geom.Point(nil), key...))
		return true
	})
	if err := h.checkFinal(append(all, acked, outside, racing)); err != nil {
		t.Errorf("final content rejected: %v", err)
	}
	if err := h.checkFinal(append(all, acked, outside)); err == nil {
		t.Error("final content missing an acked insert passes")
	}
	if err := h.checkFinal(append(all, acked, outside, racing, gone)); err == nil {
		t.Error("final content holding a deleted key passes")
	}
}

func TestKNNOracle(t *testing.T) {
	_, f := smallGrid(t)
	key := geom.Point{1000, 1000}
	o := op{kind: opKNN, key: key}
	var pts []geom.Point
	for _, n := range f.NearestNeighbors(key, knnK) {
		pts = append(pts, n.Record.Key)
	}
	h := newHistory(f, nil)
	if err := h.check(o, fingerprintOf(o, answer{pts: pts}), 10, 20); err != nil {
		t.Fatalf("exact knn answer rejected: %v", err)
	}
	// A key inserted right at the centre before the read must displace
	// the farthest neighbour.
	h = newHistory(f, []writeRec{{kind: opInsert, key: key, issue: 1, ack: 2}})
	if err := h.check(o, fingerprintOf(o, answer{pts: pts}), 10, 20); err == nil {
		t.Error("knn answer missing an acked nearer key passes")
	}
	closer := append([]geom.Point{key}, pts[:knnK-1]...)
	if err := h.check(o, fingerprintOf(o, answer{pts: closer}), 10, 20); err != nil {
		t.Errorf("knn answer with the acked key rejected: %v", err)
	}
}

// streamText renders the first n ops of a worker's stream.
func streamText(wl workload, ds *synth.Dataset, seed int64, n int) string {
	return fmt.Sprint(newOpGen(wl, ds.Domain, ds.Records, seed, 0).take(n))
}

func TestOpStreamsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		ds := synth.Uniform2D(500, 1)
		a, b := streamText(wl, ds, 7, 2000), streamText(wl, ds, 7, 2000)
		if a != b {
			t.Errorf("%s: the same seed gave different op streams", wl.name)
		}
		if c := streamText(wl, ds, 8, 2000); c == a {
			t.Errorf("%s: different seeds gave the same op stream", wl.name)
		}
	}
}

func TestOpMix(t *testing.T) {
	wl, err := findWorkload("ingest-mix")
	if err != nil {
		t.Fatal(err)
	}
	ds := synth.Uniform2D(500, 1)
	g := newOpGen(wl, ds.Domain, ds.Records, 1, 0)
	const n = 200000
	var counts [numOpKinds]int
	live := map[string]bool{}
	for i := 0; i < n; i++ {
		o := g.next()
		counts[o.kind]++
		k := fmt.Sprint(o.key)
		switch o.kind {
		case opInsert:
			live[k] = true
		case opDelete:
			if !live[k] {
				t.Fatalf("op %d deletes %v, which the stream never inserted", i, o.key)
			}
			delete(live, k)
		}
	}
	want := map[opKind]float64{opRange: 0.24, opCount: 0.24, opPoint: 0.16, opKNN: 0.08, opPartial: 0.08, opInsert: 0.15, opDelete: 0.05}
	for k, share := range want {
		if got := float64(counts[k]) / n; got < share-0.01 || got > share+0.01 {
			t.Errorf("%s: share %.3f, want %.2f", k, got, share)
		}
	}
}

// TestRunReportsEveryMetric runs short workloads end to end, untraced and
// traced, and checks the result line against BENCHMARK.json.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload, trace string
		want            []struct{ Name, Unit string }
	}{
		{"scan-hot", "0", spec.EndToEnd},
		{"ingest-mix", "0", spec.EndToEnd},
		{"ingest-mix", "1", spec.PerLayer},
	} {
		var out, errs bytes.Buffer
		if code := run([]string{"--workload", c.workload, "--seed", "3", "--seconds", "1", "--trace", c.trace}, &out, &errs); code != 0 {
			t.Fatalf("%s trace %s: exit %d: %s\n%s", c.workload, c.trace, code, errs.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace %s: last line: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace %s: result %+v", c.workload, c.trace, res)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", c.workload, c.trace, len(res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s trace %s: metric %s is %+v (present %v), want unit %s", c.workload, c.trace, m.Name, got, ok, m.Unit)
			}
		}
	}
	os.RemoveAll(workDir)
}

func TestWindowedPercentiles(t *testing.T) {
	// Window 0 holds 1..100 µs, window 1 holds 101..200 µs, and window 2
	// lies past the phase's two whole windows.
	w := winStats{wins: 2}
	for win, base := range []int{0, 100} {
		for i := 1; i <= 100; i++ {
			w.add(time.Duration(base+i)*time.Microsecond, win)
		}
	}
	w.add(time.Hour, 2)
	w.close()
	if w.n != 201 {
		t.Errorf("%d latencies recorded, want 201", w.n)
	}
	if want := []float64{0.050, 0.150}; !slices.Equal(w.p50, want) {
		t.Errorf("window p50s %v, want %v", w.p50, want)
	}
	if want := []float64{0.099, 0.199}; !slices.Equal(w.p99, want) {
		t.Errorf("window p99s %v, want %v", w.p99, want)
	}
	if got := medianOf(w.p99); math.Abs(got-0.149) > 1e-12 {
		t.Errorf("median of window p99s = %v ms, want 0.149", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("median of no windows = %v, want 0", got)
	}
}

// Command perfbench is the repository's benchmark. It builds a workload's
// layout from a seed, serves it in-process, drives it closed-loop over
// loopback with two callers on two connections, checks every answer against
// an in-memory oracle and prints the metrics, the last line as JSON.
//
//	perfbench --workload scan-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it also replays the same ops in a separate traced run and
// prints the per-layer metrics instead of the end-to-end ones. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"pgridfile/internal/store"
)

// workDir holds the layouts of a run and the span files, relative to the
// checkout root the benchmark runs from; run.sh builds into it too.
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scan-hot, scan-cold or ingest-mix")
	seed := fs.Int64("seed", 1, "seed of the records and the ops")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 adds a traced replay and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload scan-hot|scan-cold|ingest-mix, --seconds >= 1, --trace 0|1")
		return 2
	}
	b := &bench{wl: wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *traced == 1, out: stdout}
	b.root = filepath.Join(workDir, fmt.Sprintf("perfbench-%d", os.Getpid()))
	b.spans = filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.csv", wl.name, *seed))
	res, err := b.run()
	os.RemoveAll(b.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation.
type bench struct {
	wl     workload
	seed   int64
	dur    time.Duration
	traced bool
	root   string // scratch directory for layouts, removed at exit
	spans  string // where the traced run's spans go
	out    io.Writer
}

func (b *bench) printf(format string, a ...any) { fmt.Fprintf(b.out, format, a...) }

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return nil, err
	}
	fsType := filesystem(b.root)
	b.printf("perfbench: workload %s seed %d, %d closed-loop callers on %d connections, no pipelining\n",
		b.wl.name, b.seed, workers, workers)
	b.printf("perfbench: go %s, GOMAXPROCS %d, layout filesystem %s\n", runtime.Version(), runtime.GOMAXPROCS(0), fsType)

	// Set up several times; the last instance is the one measured.
	var times []setupTimes
	var in *instance
	for i := 0; i < b.wl.setups; i++ {
		if in != nil {
			in.close()
			os.RemoveAll(in.dir)
			in = nil
		}
		runtime.GC()
		var st setupTimes
		var err error
		in, st, err = setUp(b.wl, b.seed, filepath.Join(b.root, fmt.Sprintf("layout%d", i)), "")
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, st)
	}
	defer in.close()
	diskBytes0, err := pageFileBytes(in.dir)
	if err != nil {
		return nil, err
	}
	b.printf("perfbench: %d records, %d buckets, %d bytes in page files, cache budget %s, r=%d, flush: fsync to every owner journal before the ack, checkpoint every %d mutations\n",
		len(in.ds.Records), in.grid.NumBuckets(), diskBytes0, budgetString(in.cache), b.wl.replicas, store.DefaultCheckpointEvery)

	streams := makeStreams(in)
	before := in.srv.Snapshot()
	p := runPhase(in, streams, b.dur, nil, nil)
	rss := peakRSS() // before the checks below, which are the oracle's cost
	after := in.srv.Snapshot()
	live := len(in.ds.Records)
	if b.wl.writable() {
		if live, err = p.checkHistory(in); err != nil {
			return nil, err
		}
	}
	ops, failed, lat, buckets, errs := p.totals()
	for _, e := range errs {
		b.printf("perfbench: FAILED: %s\n", e)
	}
	diskBytes, err := pageFileBytes(in.dir)
	if err != nil {
		return nil, err
	}
	opsPerS := float64(ops) / p.elapsed.Seconds()
	b.printf("perfbench: %d ops in %.3f s, %d reads, %d writes, %d failed; latency percentiles are medians over %d worker windows of %v\n",
		ops, p.elapsed.Seconds(), lat.reads, lat.writes, failed, len(lat.readP50), window)

	res := &result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		b.printf("%-34s %14.6g %s\n", name, v, unit)
	}
	setupS := median(times, setupTimes.total)
	if !b.traced {
		put("ops_per_s", opsPerS, "ops/s")
		put("read_p50_ms", medianOf(lat.readP50), "ms")
		put("read_p99_ms", medianOf(lat.readP99), "ms")
		put("setup_s", setupS, "s")
		put("space_amp", float64(diskBytes)/float64(live*in.grid.Dims()*8), "ratio")
		put("peak_rss_mb", rss, "MiB")
		b.printf("perfbench: read latency over %d samples, write latency over %d samples\n", lat.reads, lat.writes)
		return res, nil
	}

	// Count metrics: the always-on counters, diffed across the timed phase.
	reads, writes := float64(lat.reads), float64(lat.writes)
	put("write_p50_ms", medianOf(lat.wrP50), "ms")
	put("write_p99_ms", medianOf(lat.wrP99), "ms")
	put("failed_frac", float64(failed)/float64(ops), "ratio")
	put("gridfile.buckets_per_read", ratio(float64(buckets), reads), "count")
	c0, c1 := before.Cache, after.Cache
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	put("cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cache.evictions_per_read", ratio(float64(c1.Evictions-c0.Evictions), reads), "count")
	put("cache.invalidations_per_write", ratio(float64(c1.Invalidations-c0.Invalidations), writes), "count")
	put("store.pages_per_read", ratio(float64(after.PagesRead-before.PagesRead), reads), "count")
	put("store.merged_fetch_ratio", ratio(float64(after.MergedFetches-before.MergedFetches), reads), "ratio")
	var w0, w1 store.WriteCounters
	if before.Writes != nil {
		w0, w1 = *before.Writes, *after.Writes
	}
	put("gridfile.splits_per_write", ratio(float64(w1.BucketSplits-w0.BucketSplits), writes), "count")
	put("store.journal_appends_per_write", ratio(float64(w1.JournalAppends-w0.JournalAppends), writes), "count")
	put("store.bytes_written_per_write", ratio(float64(diskBytes-diskBytes0), writes), "B")
	checkpoints := 0.0
	if b.wl.writable() {
		m, err := readManifest(in.dir)
		if err != nil {
			return nil, err
		}
		checkpoints = float64(m.CheckpointLSN / store.DefaultCheckpointEvery)
	}
	put("store.checkpoints", checkpoints, "count")
	put("server.latency_us_p50", after.LatencyMicros.P50, "us")
	put("server.wire_us", medianOf(lat.readP50)*1000-after.LatencyMicros.P50, "us")
	put("server.frames_per_writev", ratio(float64(after.WriteFrames-before.WriteFrames), float64(after.WriteBatches-before.WriteBatches)), "count")
	put("server.disk_fetch_imbalance", imbalance(before.DiskFetches, after.DiskFetches), "ratio")
	mmd, opt := maxDiskBuckets(in, 4096)
	put("core.max_disk_buckets_mean", mmd, "count")
	put("core.optimal_ratio", ratio(mmd, opt), "ratio")
	for step, name := range stepMetrics {
		put(name, median(times, func(t setupTimes) time.Duration { return t[step] }), "s")
	}

	// The traced run: a fresh set-up replaying each worker's ops.
	counts := make([]int, len(p.logs))
	for w, l := range p.logs {
		counts[w] = l.ops
	}
	in.close()
	tops, tfailed, err := b.tracedRun(counts, opsPerS, put)
	if err != nil {
		return nil, err
	}
	res.Attempted += tops
	res.Failed += tfailed
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedRun sets up afresh and replays each worker's first counts[w] ops
// with every op traced, reporting the per-layer times. It returns the ops
// it ran and how many failed.
func (b *bench) tracedRun(counts []int, untracedOpsPerS float64, put func(string, float64, string)) (int, int, error) {
	dir := filepath.Join(b.root, "traced")
	shadowDir := ""
	if b.wl.writable() {
		shadowDir = filepath.Join(b.root, "traced-shadow")
	}
	runtime.GC()
	in, _, err := setUp(b.wl, b.seed, dir, shadowDir)
	if err != nil {
		return 0, 0, fmt.Errorf("traced set-up: %w", err)
	}
	defer in.close()
	if shadowDir == "" {
		shadowDir = dir
	}
	sh, err := openShadow(shadowDir, b.wl.writable(), in.cache)
	if err != nil {
		return 0, 0, err
	}
	defer sh.close()
	if err := sh.warm(&tracer{epoch: time.Now()}); err != nil {
		return 0, 0, err
	}
	streams := makeStreams(in)
	p := runPhase(in, streams, b.dur, counts, sh)
	if b.wl.writable() {
		if _, err := p.checkHistory(in); err != nil {
			return 0, 0, err
		}
	}
	ops, failed, _, _, errs := p.totals()
	for _, e := range errs {
		b.printf("perfbench: FAILED (traced): %s\n", e)
	}

	var t tracer
	tracers := make([]*tracer, len(p.logs))
	for w, l := range p.logs {
		tracers[w] = l.tracer
		t.merge(l.tracer)
	}
	n := float64(t.op)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	put("gridfile.translate_us_p50", us(quantileInt(t.translate, 0.5)), "us")
	put("cache.hit_us_p50", us(quantileInt(t.hitLat, 0.5)), "us")
	put("store.pread_us_per_page", ratio(us(t.self[spanPread]), float64(t.pages)), "us")
	put("store.decode_us_per_page", ratio(us(t.self[spanDecode]), float64(t.pages)), "us")
	put("store.insert_us_p50", us(quantileInt(t.writeLat, 0.5)), "us")
	put("store.insert_us_p99", us(quantileInt(t.writeLat, 0.99)), "us")
	put("server.encode_us_per_row", ratio(us(t.self[spanEncode]), float64(t.encRows)), "us")
	put("server.decode_us_per_row", ratio(us(t.self[spanDecodeReply]), float64(t.decRows)), "us")
	residual := ratio(us(t.self[spanOp]), n)
	put("server.residual_us", residual, "us")
	opUs := ratio(us(t.opTime), n)
	put("trace.op_us", opUs, "us")
	layers := 0.0
	for name := spanRoundTrip; name < numSpanNames; name++ {
		v := ratio(us(t.self[name]), n)
		layers += v
		put("trace.self_us."+strings.ReplaceAll(name.String(), "-", "_"), v, "us")
	}
	tracedOpsPerS := float64(ops) / p.elapsed.Seconds()
	put("trace.overhead_frac", ratio(untracedOpsPerS-tracedOpsPerS, untracedOpsPerS), "ratio")
	b.printf("perfbench: traced %d ops: mean op %.3f us = layer self times %.3f us + residual %.3f us\n", t.op, opUs, layers, residual)
	if err := writeSpans(b.spans, tracers); err != nil {
		return 0, 0, err
	}
	b.printf("perfbench: spans written to %s\n", b.spans)
	return ops, failed, nil
}

// makeStreams builds each worker's ops. Read-only workloads get a pool of
// ops with the oracle's answers, computed here, outside any timed phase.
func makeStreams(in *instance) []*stream {
	streams := make([]*stream, workers)
	for w := range streams {
		g := newOpGen(in.wl, in.ds.Domain, in.ds.Records, in.seed, w)
		if in.wl.writable() {
			streams[w] = &stream{gen: g}
			continue
		}
		s := &stream{pool: g.take(maxPoolOps)}
		s.want = make([]fingerprint, len(s.pool))
		for i, o := range s.pool {
			s.want[i] = expect(in.grid, o)
		}
		streams[w] = s
	}
	return streams
}

// maxDiskBuckets is the paper's response time over the first n range and
// range-count ops of the workers' streams: the mean over queries of the
// most buckets one disk fetches, and the mean of the optimum
// ⌈buckets/disks⌉.
func maxDiskBuckets(in *instance, n int) (mean, optimal float64) {
	idx := in.grid.IndexByID()
	gens := make([]*opGen, workers)
	for w := range gens {
		gens[w] = newOpGen(in.wl, in.ds.Domain, in.ds.Records, in.seed, w)
	}
	count := 0
	for count < n {
		for _, g := range gens {
			o := g.next()
			if o.kind != opRange && o.kind != opCount {
				continue
			}
			ids := in.grid.BucketsInRange(o.rect)
			per := make([]int, disks)
			most := 0
			for _, id := range ids {
				d := in.alloc.Assign[idx[id]]
				per[d]++
				most = max(most, per[d])
			}
			mean += float64(most)
			optimal += float64((len(ids) + disks - 1) / disks)
			count++
		}
	}
	return mean / float64(count), optimal / float64(count)
}

func readManifest(dir string) (store.Manifest, error) {
	st, err := store.Open(dir)
	if err != nil {
		return store.Manifest{}, err
	}
	defer st.Close()
	return st.Manifest(), nil
}

func imbalance(before, after []int64) float64 {
	var most, sum float64
	for i := range after {
		d := float64(after[i] - before[i])
		most = max(most, d)
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return most / (sum / float64(len(after)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the nearest-rank q-quantile of sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func quantileInt(v []int64, q float64) int64 {
	d := make([]time.Duration, len(v))
	for i, x := range v {
		d[i] = time.Duration(x)
	}
	slices.Sort(d)
	return int64(quantile(d, q))
}

// median returns the median over set-ups of one of their times, in seconds.
func median(ts []setupTimes, f func(setupTimes) time.Duration) float64 {
	s := make([]float64, len(ts))
	for i, t := range ts {
		s[i] = f(t).Seconds()
	}
	return medianOf(s)
}

// peakRSS returns the process's peak resident memory in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func budgetString(b int64) string {
	if b <= 0 {
		return "64 MiB (server default)"
	}
	return fmt.Sprintf("%d bytes", b)
}

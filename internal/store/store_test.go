package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// buildLayout writes a declustered hot.2d layout into a temp dir.
func buildLayout(t *testing.T, disks, pageBytes int) (string, *gridfile.File, core.Allocation) {
	t.Helper()
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Write(dir, f, alloc, pageBytes); err != nil {
		t.Fatal(err)
	}
	return dir, f, alloc
}

// readBuckets reads ids through ReadFlatsFromTimed, the store's one
// bucket-read API, in one batch per disk (in disk order): every bucket comes
// from its copy on disk, or from its primary copy when disk < 0. It returns
// each bucket's records in ids order and the total pages read; tm is passed
// through to every batch.
func readBuckets(ctx context.Context, s *Store, disk int, ids []int32, tm *Timing) ([][]geom.Point, int, error) {
	byDisk := make([][]int, s.Disks()) // disk -> positions in ids
	for i, id := range ids {
		d := disk
		if d < 0 {
			pl, _ := s.Placement(id) // an unknown id fails in the read
			d = pl.Disk
		}
		byDisk[d] = append(byDisk[d], i)
	}
	out := make([][]geom.Point, len(ids))
	pages := 0
	for d, pos := range byDisk {
		if len(pos) == 0 {
			continue
		}
		batch := make([]int32, len(pos))
		for k, i := range pos {
			batch[k] = ids[i]
		}
		flats := make([]geom.Flat, len(batch))
		p, err := s.ReadFlatsFromTimed(ctx, d, batch, flats, tm)
		if err != nil {
			return nil, 0, err
		}
		pages += p
		for k, i := range pos {
			out[i] = flats[k].Points()
		}
	}
	return out, pages, nil
}

// readBucket reads one bucket as a single-id readBuckets batch.
func readBucket(ctx context.Context, s *Store, disk int, id int32) ([]geom.Point, int, error) {
	got, pages, err := readBuckets(ctx, s, disk, []int32{id}, nil)
	if err != nil {
		return nil, 0, err
	}
	return got[0], pages, nil
}

func TestWriteAndReadBackAllBuckets(t *testing.T) {
	dir, f, _ := buildLayout(t, 8, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	totalRecs := 0
	for _, v := range f.Buckets() {
		pts, pages, err := readBucket(context.Background(), s, -1, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if len(pts) != v.Records {
			t.Fatalf("bucket %d: read %d records, want %d", v.ID, len(pts), v.Records)
		}
		if pages < 1 {
			t.Fatalf("bucket %d: %d pages", v.ID, pages)
		}
		totalRecs += len(pts)
		// Every key read back must exist in the in-memory bucket.
		want := map[[2]float64]int{}
		f.ForEachRecordInBucket(v.ID, func(key []float64, _ []byte) {
			want[[2]float64{key[0], key[1]}]++
		})
		for _, p := range pts {
			k := [2]float64{p[0], p[1]}
			if want[k] == 0 {
				t.Fatalf("bucket %d: unexpected key %v", v.ID, p)
			}
			want[k]--
		}
	}
	if totalRecs != f.Len() {
		t.Fatalf("layout holds %d records, file has %d", totalRecs, f.Len())
	}
}

func TestDiskSizesMatchPlacement(t *testing.T) {
	dir, f, alloc := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sizes, err := s.DiskSizes()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 4 {
		t.Fatalf("%d disks", len(sizes))
	}
	var totalPages int64
	for _, n := range sizes {
		if n == 0 {
			t.Error("a disk file is empty despite balanced declustering")
		}
		totalPages += n
	}
	// Every bucket occupies at least one page.
	if totalPages < int64(f.NumBuckets()) {
		t.Errorf("%d pages for %d buckets", totalPages, f.NumBuckets())
	}
	// Minimax balance should keep per-disk pages within ~2x of each other.
	var min, max int64 = sizes[0], sizes[0]
	for _, n := range sizes {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max > 2*min {
		t.Errorf("page counts unbalanced: %v (alloc loads %v)", sizes, alloc.DiskLoads())
	}
}

func TestMultiPageBuckets(t *testing.T) {
	// A tiny page forces every bucket to span multiple pages.
	dir, f, _ := buildLayout(t, 4, 256)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	multi := 0
	for _, v := range f.Buckets() {
		pts, pages, err := readBucket(context.Background(), s, -1, v.ID)
		if err != nil {
			t.Fatalf("bucket %d: %v", v.ID, err)
		}
		if len(pts) != v.Records {
			t.Fatalf("bucket %d: %d records, want %d", v.ID, len(pts), v.Records)
		}
		if pages > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no multi-page buckets with a 256-byte page")
	}
}

func TestWriteValidation(t *testing.T) {
	f, err := synth.Hotspot2D(200, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, _ := (&core.Minimax{Seed: 1}).Decluster(g, 2)
	if _, err := Write(t.TempDir(), f, alloc, 16); err == nil {
		t.Error("page smaller than one record accepted")
	}
	bad := core.Allocation{Disks: 2, Assign: []int{0}}
	if _, err := Write(t.TempDir(), f, bad, 4096); err == nil {
		t.Error("truncated allocation accepted")
	}
}

// TestBuildMatchesPipeline pins Build to the hand-written pipeline it
// replaces, file for file and byte for byte: Decluster→Write at r=1 and
// Decluster→Place→WriteReplicated at r=2, for any worker count.
func TestBuildMatchesPipeline(t *testing.T) {
	f, err := synth.Hotspot2D(3000, 5).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	const disks = 8
	for _, scheme := range []string{"minimax", "DM/D"} {
		allocator, err := core.ParseAllocator(scheme, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := allocator.Decluster(g, disks)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{1, 2} {
			want := t.TempDir()
			if r == 1 {
				_, err = Write(want, f, alloc, gridfile.PageSize)
			} else {
				var rm *replica.Map
				if rm, err = (&replica.Placer{Replicas: r, Workers: 1}).Place(g, alloc); err == nil {
					_, err = WriteReplicated(want, f, rm, gridfile.PageSize)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				spec := DefaultLayoutSpec()
				spec.Scheme, spec.Disks, spec.Replicas, spec.Workers = scheme, disks, r, workers
				got := t.TempDir()
				if _, err := Build(got, f, spec); err != nil {
					t.Fatalf("%s r=%d workers=%d: %v", scheme, r, workers, err)
				}
				sameDirs(t, fmt.Sprintf("%s r=%d workers=%d", scheme, r, workers), want, got)
			}
		}
	}

	for name, override := range map[string]func(*LayoutSpec){
		"unknown scheme":   func(s *LayoutSpec) { s.Scheme = "bogus" },
		"zero replicas":    func(s *LayoutSpec) { s.Replicas = 0 },
		"replicas > disks": func(s *LayoutSpec) { s.Replicas = s.Disks + 1 },
	} {
		spec := DefaultLayoutSpec()
		override(&spec)
		if _, err := Build(t.TempDir(), f, spec); err == nil {
			t.Errorf("%s: Build accepted %+v", name, spec)
		}
	}
}

// sameDirs fails unless directories a and b hold the same file names with
// byte-identical contents.
func sameDirs(t *testing.T, label, a, b string) {
	t.Helper()
	ea, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d files, reference has %d", label, len(eb), len(ea))
	}
	for i, e := range ea {
		if eb[i].Name() != e.Name() {
			t.Fatalf("%s: file %q, reference has %q", label, eb[i].Name(), e.Name())
		}
		da, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s: %s differs from the reference", label, e.Name())
		}
	}
}

func TestOpenRejectsBadLayouts(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("broken manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"disks":2,"dims":2,"page_bytes":4096,"buckets":[{"id":1,"disk":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("out-of-range disk accepted")
	}
}

func TestReadUnknownBucket(t *testing.T) {
	dir, _, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := readBucket(context.Background(), s, -1, 99999); err == nil {
		t.Error("unknown bucket accepted")
	}
}

func TestDomainRoundTrip(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Domain()
	want := f.Domain()
	for d := range want {
		if got[d] != want[d] {
			t.Errorf("domain dim %d = %v, want %v", d, got[d], want[d])
		}
	}
	_ = geom.Rect(got)
}

// TestConcurrentReaders hammers single-bucket reads from many goroutines at once;
// under -race this is the regression test for the store's documented
// concurrent-reader safety (the server's per-disk I/O goroutines depend
// on it).
func TestConcurrentReaders(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	views := f.Buckets()
	want := make(map[int32]int, len(views))
	for _, v := range views {
		want[v.ID] = v.Records
	}

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for j := range views {
					v := views[(j+r)%len(views)] // stagger the access order
					pts, _, err := readBucket(context.Background(), s, -1, v.ID)
					if err != nil {
						errs <- err
						return
					}
					if len(pts) != want[v.ID] {
						errs <- fmt.Errorf("bucket %d: %d records, want %d",
							v.ID, len(pts), want[v.ID])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchedReadMatchesSingleReads proves a coalesced per-disk batch
// returns exactly what single-bucket reads do, and charges the same page
// count.
func TestBatchedReadMatchesSingleReads(t *testing.T) {
	for _, pageBytes := range []int{4096, 256} { // 256 forces multi-page buckets
		dir, f, _ := buildLayout(t, 4, pageBytes)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		views := f.Buckets()
		ids := make([]int32, 0, len(views))
		for _, v := range views {
			ids = append(ids, v.ID)
		}
		got, pages, err := readBuckets(context.Background(), s, -1, ids, nil)
		if err != nil {
			t.Fatalf("page=%d: %v", pageBytes, err)
		}
		wantPages := 0
		for k, id := range ids {
			want, p, err := readBucket(context.Background(), s, -1, id)
			if err != nil {
				t.Fatal(err)
			}
			wantPages += p
			if len(got[k]) != len(want) {
				t.Fatalf("page=%d bucket %d: %d records, want %d",
					pageBytes, id, len(got[k]), len(want))
			}
			for i := range want {
				for d := range want[i] {
					if got[k][i][d] != want[i][d] {
						t.Fatalf("page=%d bucket %d record %d differs", pageBytes, id, i)
					}
				}
			}
		}
		if pages != wantPages {
			t.Errorf("page=%d: coalesced read charged %d pages, per-bucket %d",
				pageBytes, pages, wantPages)
		}
		// One unknown id fails the whole batch.
		pl, _ := s.Placement(ids[0])
		if _, err := s.ReadFlatsFromTimed(context.Background(), pl.Disk, []int32{ids[0], 99999},
			make([]geom.Flat, 2), nil); err == nil {
			t.Error("unknown bucket id accepted")
		}
		s.Close()
	}
}

// TestTruncatedPageFile proves single and batched reads surface I/O errors instead
// of returning partial data when a disk file has been cut short.
func TestTruncatedPageFile(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	// Truncate disk 0 to one page: any multi-bucket read on it must fail.
	path := filepath.Join(dir, DiskFileName(0))
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var onDisk0 []int32
	for _, v := range f.Buckets() {
		if pl, ok := s.Placement(v.ID); ok && pl.Disk == 0 {
			onDisk0 = append(onDisk0, v.ID)
		}
	}
	if len(onDisk0) < 2 {
		t.Fatal("layout put fewer than 2 buckets on disk 0")
	}
	// The bucket past the surviving page must fail alone and in a batch.
	victim := onDisk0[len(onDisk0)-1]
	if _, _, err := readBucket(context.Background(), s, -1, victim); err == nil {
		t.Error("single read returned data from a truncated file")
	}
	if _, _, err := readBuckets(context.Background(), s, 0, onDisk0, nil); err == nil {
		t.Error("batched read returned data from a truncated file")
	}
}

// TestCorruptPageHeader flips a page's bucket-id header on disk and proves
// the read path detects the mismatch (the defence against a placement map
// that disagrees with the page files).
func TestCorruptPageHeader(t *testing.T) {
	dir, f, _ := buildLayout(t, 2, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := f.Buckets()[0].ID
	pl, ok := s.Placement(victim)
	if !ok {
		t.Fatal("placement missing")
	}
	s.Close()

	// Overwrite the page's bucket-id header with a different id.
	path := filepath.Join(dir, DiskFileName(pl.Disk))
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(victim)+100000)
	if _, err := fh.WriteAt(hdr[:], pl.Page*4096); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := readBucket(context.Background(), s, -1, victim); err == nil {
		t.Error("read accepted a page holding another bucket")
	}

	// An implausible record count must be rejected too.
	fh, err = os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(victim))
	if _, err := fh.WriteAt(hdr[:], pl.Page*4096); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if _, err := fh.WriteAt(hdr[:], pl.Page*4096+4); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := readBucket(context.Background(), s2, -1, victim); err == nil {
		t.Error("read accepted an implausible record count")
	}
}

// TestConcurrentBatchReaders hammers whole-layout per-disk batches (whose
// pooled buffers are the shared-state risk) from many goroutines under
// -race, interleaved with single-bucket reads.
func TestConcurrentBatchReaders(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 512) // small pages: multi-page buckets in play
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	views := f.Buckets()
	ids := make([]int32, 0, len(views))
	want := make(map[int32]int, len(views))
	for _, v := range views {
		ids = append(ids, v.ID)
		want[v.ID] = v.Records
	}

	const readers = 12
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if r%2 == 0 {
					got, _, err := readBuckets(context.Background(), s, -1, ids, nil)
					if err != nil {
						errs <- err
						return
					}
					for k, pts := range got {
						if id := ids[k]; len(pts) != want[id] {
							errs <- fmt.Errorf("bucket %d: %d records, want %d",
								id, len(pts), want[id])
							return
						}
					}
				} else {
					for _, id := range ids {
						pts, _, err := readBucket(context.Background(), s, -1, id)
						if err != nil {
							errs <- err
							return
						}
						if len(pts) != want[id] {
							errs <- fmt.Errorf("bucket %d: %d records, want %d",
								id, len(pts), want[id])
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReadTiming proves a timed read splits its cost into pread and decode,
// accumulates across calls, returns identical data to an untimed read, and
// that a nil Timing is accepted.
func TestReadTiming(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	views := f.Buckets()
	ids := make([]int32, 0, len(views))
	for _, v := range views {
		ids = append(ids, v.ID)
	}

	var tm Timing
	got, pages, err := readBuckets(context.Background(), s, -1, ids, &tm)
	if err != nil {
		t.Fatal(err)
	}
	if pages < len(ids) {
		t.Fatalf("timed batch read: %d pages for %d buckets", pages, len(ids))
	}
	if tm.Pread <= 0 || tm.Decode <= 0 {
		t.Errorf("batch Timing not populated: %+v", tm)
	}

	// A further read accumulates into the same Timing.
	before := tm
	again, _, err := readBuckets(context.Background(), s, -1, ids[:1], &tm)
	if err != nil {
		t.Fatal(err)
	}
	if len(again[0]) != len(got[0]) {
		t.Errorf("timed single read returned %d records, batch %d", len(again[0]), len(got[0]))
	}
	if tm.Pread <= before.Pread || tm.Decode <= before.Decode {
		t.Errorf("single-read Timing did not accumulate: %+v -> %+v", before, tm)
	}

	// nil Timing: same data, no timing requirement.
	got2, pages2, err := readBuckets(context.Background(), s, -1, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got) || pages2 != pages {
		t.Errorf("nil-Timing read diverged: %d buckets / %d pages, want %d / %d",
			len(got2), pages2, len(got), pages)
	}
}

// TestOpenGrid proves the grid file embedded by Write round-trips and its
// bucket ids agree with the manifest placements.
func TestOpenGrid(t *testing.T) {
	dir, f, _ := buildLayout(t, 4, 4096)
	g, err := OpenGrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() || g.NumBuckets() != f.NumBuckets() {
		t.Fatalf("embedded grid: %d recs / %d buckets, want %d / %d",
			g.Len(), g.NumBuckets(), f.Len(), f.NumBuckets())
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range g.Buckets() {
		pl, ok := s.Placement(v.ID)
		if !ok {
			t.Fatalf("embedded grid bucket %d missing from manifest", v.ID)
		}
		if pl.Recs != v.Records {
			t.Fatalf("bucket %d: manifest has %d records, grid %d", v.ID, pl.Recs, v.Records)
		}
	}
	if _, err := OpenGrid(t.TempDir()); err == nil {
		t.Error("OpenGrid succeeded on a directory without a layout")
	}
}

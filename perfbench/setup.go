package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pgridfile/internal/core"
	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/server"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// Set-up steps.
const (
	stepGridBuild   = iota // generate the records and load the grid file
	stepDecluster          // minimax allocation, plus replica placement at r>1
	stepLayoutWrite        // per-disk page files, manifest and grid
	stepServerOpen         // server.OpenDir and the client
	stepWarm               // cache fill and untimed reads
	numSteps
)

// stepMetrics names each step's per-layer metric.
var stepMetrics = [numSteps]string{"setup.grid_build_s", "core.decluster_s", "store.layout_write_s", "server.open_s", "setup.warm_s"}

// setupTimes splits one set-up into its steps.
type setupTimes [numSteps]time.Duration

func (t setupTimes) total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// instance is one built layout served in-process.
type instance struct {
	wl    workload
	seed  int64
	dir   string
	ds    *synth.Dataset
	grid  *gridfile.File // in-memory grid of the initial records: the oracle
	alloc core.Allocation
	cache int64 // server cache budget in bytes
	srv   *server.Server
	cli   *server.Client
}

// setUp builds the workload's layout under dir, serves it and warms it.
// shadowDir, when non-empty, receives a copy of the fresh layout for the
// traced run's in-process replay.
func setUp(wl workload, seed int64, dir, shadowDir string) (*instance, setupTimes, error) {
	var st setupTimes
	in := &instance{wl: wl, seed: seed, dir: dir}

	t := time.Now()
	ds, err := wl.generate(seed)
	if err != nil {
		return nil, st, err
	}
	f, err := ds.Build()
	if err != nil {
		return nil, st, err
	}
	in.ds, in.grid = ds, f
	st[stepGridBuild] = time.Since(t)

	t = time.Now()
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: seed}).Decluster(g, disks)
	if err != nil {
		return nil, st, err
	}
	var rm *replica.Map
	if wl.replicas > 1 {
		if rm, err = (&replica.Placer{Replicas: wl.replicas}).Place(g, alloc); err != nil {
			return nil, st, err
		}
	}
	in.alloc = alloc
	st[stepDecluster] = time.Since(t)

	t = time.Now()
	if rm != nil {
		_, err = store.WriteReplicated(dir, f, rm, gridfile.PageSize)
	} else {
		_, err = store.Write(dir, f, alloc, gridfile.PageSize)
	}
	if err != nil {
		return nil, st, err
	}
	st[stepLayoutWrite] = time.Since(t)

	if shadowDir != "" {
		if err := copyDir(dir, shadowDir); err != nil {
			return nil, st, err
		}
	}
	if wl.cacheDiv > 0 {
		b, err := pageFileBytes(dir)
		if err != nil {
			return nil, st, err
		}
		in.cache = b / int64(wl.cacheDiv)
	}

	t = time.Now()
	in.srv, err = server.OpenDir(dir, server.Config{CacheBytes: in.cache, Writable: wl.writable()})
	if err != nil {
		return nil, st, err
	}
	in.cli, err = server.NewClient(server.ClientConfig{Addr: in.srv.Addr().String(), PoolSize: workers})
	if err != nil {
		in.close()
		return nil, st, err
	}
	st[stepServerOpen] = time.Since(t)

	t = time.Now()
	if err := in.warm(); err != nil {
		in.close()
		return nil, st, err
	}
	st[stepWarm] = time.Since(t)
	return in, st, nil
}

// warm fills the cache with one full-domain count, then runs warmReads
// reads per worker from streams the timed phase never uses.
func (in *instance) warm() error {
	n, _, err := in.cli.RangeCount(in.ds.Domain)
	if err != nil {
		return fmt.Errorf("warm-up count: %w", err)
	}
	if n != len(in.ds.Records) {
		return fmt.Errorf("warm-up count: server holds %d records, want %d", n, len(in.ds.Records))
	}
	readOnly := in.wl
	readOnly.insertPct, readOnly.deletePct = 0, 0
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			g := newOpGen(readOnly, in.ds.Domain, in.ds.Records, in.seed+poolSalt, w)
			for i := 0; i < warmReads; i++ {
				if _, _, err := in.do(g.next()); err != nil {
					errc <- fmt.Errorf("warm-up read: %w", err)
					return
				}
			}
			errc <- nil
		}(w)
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// do sends one op through the client and returns the answer's points (or
// count) and the server's accounting.
func (in *instance) do(o op) (answer, server.QueryInfo, error) {
	var a answer
	var info server.QueryInfo
	var err error
	switch o.kind {
	case opRange:
		a.pts, info, err = in.cli.Range(o.rect)
	case opCount:
		a.count, info, err = in.cli.RangeCount(o.rect)
		return a, info, err
	case opPoint:
		a.pts, info, err = in.cli.Point(o.key)
	case opKNN:
		a.pts, info, err = in.cli.KNN(o.key, knnK)
	case opPartial:
		a.pts, info, err = in.cli.PartialMatch(o.key)
	case opInsert, opDelete:
		var res server.Result
		if o.kind == opInsert {
			res, err = in.cli.Insert(o.key)
		} else {
			res, err = in.cli.Delete(o.key)
		}
		if err == nil && !res.Applied {
			err = fmt.Errorf("%s of %v not applied", o.kind, o.key)
		}
		return a, res.Info, err
	}
	a.count = len(a.pts)
	return a, info, err
}

// close stops the client and the server.
func (in *instance) close() {
	if in.cli != nil {
		in.cli.Close()
	}
	if in.srv != nil {
		in.srv.Close()
	}
}

// answer is a read's reply: its points, or only a count for range-count.
type answer struct {
	pts   []geom.Point
	count int
}

// pageFileBytes sums the sizes of a layout's per-disk page files.
func pageFileBytes(dir string) (int64, error) {
	var n int64
	for d := 0; d < disks; d++ {
		fi, err := os.Stat(filepath.Join(dir, store.DiskFileName(d)))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// copyDir copies the regular files of a layout directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

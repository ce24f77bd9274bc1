package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"pgridfile/internal/geom"
	"pgridfile/internal/store"
)

func runLayout(args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	path := fs.String("file", "", "grid file (required)")
	alg := fs.String("alg", "minimax", "declustering algorithm")
	disks := fs.Int("disks", 16, "number of disks")
	pageBytes := fs.Int("page", 4096, "page size in bytes")
	seed := fs.Int64("seed", 1, "seed for randomized phases")
	out := fs.String("out", "", "layout directory (required)")
	workers := fs.Int("workers", 0, "build worker goroutines for proximity-based algorithms (0 = GOMAXPROCS)")
	replicas := fs.Int("replicas", 1, "copies of every bucket, each on a distinct disk (>= 1; 1 = no replication)")
	fs.Parse(args)
	if *path == "" || *out == "" {
		return fmt.Errorf("layout: -file and -out are required")
	}
	f, err := loadFile(*path)
	if err != nil {
		return err
	}
	m, err := store.Build(*out, f, store.LayoutSpec{
		Scheme: *alg, Seed: *seed, Workers: *workers,
		Disks: *disks, Replicas: *replicas, PageBytes: *pageBytes,
	})
	if err != nil {
		return err
	}

	sizes, err := verifyLayout(*out, f.Len())
	if err != nil {
		return fmt.Errorf("layout verification: %w", err)
	}
	if *replicas > 1 {
		fmt.Printf("laid out %d buckets (%d records) over %d disks with %s, %d copies each\n",
			len(m.Buckets), f.Len(), *disks, *alg, *replicas)
	} else {
		fmt.Printf("laid out %d buckets (%d records) over %d disks with %s\n",
			len(m.Buckets), f.Len(), *disks, *alg)
	}
	fmt.Printf("pages per disk: %v\n", sizes)
	fmt.Printf("layout is self-contained (grid.grd embedded); serve it with: gridserver serve -store %s\n", *out)
	return nil
}

// verifyLayout reads a freshly written layout back before it is declared
// good: every copy of every bucket, one ReadFlatsFromTimed batch per disk,
// with page CRCs checked on checksummed layouts. Each secondary copy must
// match its primary bit for bit, so a torn replica copy fails the build
// rather than the first failover that routes to it, and the primaries must
// hold exactly records records. It returns every disk file's size in pages.
func verifyLayout(dir string, records int) ([]int64, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.SetVerify(s.Checksummed())
	m := s.Manifest()

	// copies[b][k] receives bucket m.Buckets[b]'s copy on its k-th owner.
	copies := make([][]geom.Flat, len(m.Buckets))
	type slot struct{ b, k int }
	ids := make([][]int32, m.Disks)
	slots := make([][]slot, m.Disks)
	for b, pl := range m.Buckets {
		copies[b] = make([]geom.Flat, len(pl.OwnerDisks))
		for k, d := range pl.OwnerDisks {
			ids[d] = append(ids[d], pl.ID)
			slots[d] = append(slots[d], slot{b, k})
		}
	}
	for d := range ids {
		out := make([]geom.Flat, len(ids[d]))
		if _, err := s.ReadFlatsFromTimed(context.Background(), d, ids[d], out, nil); err != nil {
			return nil, fmt.Errorf("disk %d: %w", d, err)
		}
		for i, sl := range slots[d] {
			copies[sl.b][sl.k] = out[i]
		}
	}

	total := 0
	for b, pl := range m.Buckets {
		primary := copies[b][0].Coords
		total += copies[b][0].Len()
		for k, fl := range copies[b][1:] {
			if !sameBits(fl.Coords, primary) {
				return nil, fmt.Errorf("bucket %d copy on disk %d differs from the primary on disk %d",
					pl.ID, pl.OwnerDisks[k+1], pl.Disk)
			}
		}
	}
	if total != records {
		return nil, fmt.Errorf("%d records read back, file has %d", total, records)
	}
	return s.DiskSizes()
}

// sameBits reports whether two coordinate arrays are identical bit for bit
// (unlike ==, which equates 0 and -0 and never matches NaN).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

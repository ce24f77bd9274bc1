package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/gridfile"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// writeTestLayout writes a small uniform grid file's default (minimax,
// 4-disk) layout at replication factor r.
func writeTestLayout(t *testing.T, r int) (*gridfile.File, string, *store.Manifest) {
	t.Helper()
	f, err := synth.Uniform2D(600, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := store.DefaultLayoutSpec()
	spec.Replicas = r
	dir := t.TempDir()
	m, err := store.Build(dir, f, spec)
	if err != nil {
		t.Fatal(err)
	}
	return f, dir, m
}

// TestRunLayoutReplicas drives the layout subcommand end to end: a
// replication factor below 1 is an error rather than a silently
// unreplicated layout, and -replicas 2 yields a layout the store opens
// with two copies per bucket.
func TestRunLayoutReplicas(t *testing.T) {
	f, err := synth.Uniform2D(600, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	grid := filepath.Join(t.TempDir(), "test.grd")
	fh, err := os.Create(grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	layout := func(r string) (string, error) {
		out := filepath.Join(t.TempDir(), "layout")
		return out, runLayout([]string{"-file", grid, "-disks", "4", "-replicas", r, "-out", out})
	}
	for _, r := range []string{"0", "-1"} {
		if _, err := layout(r); err == nil || !strings.Contains(err.Error(), "replicas must be >= 1") {
			t.Errorf("-replicas %s: err = %v, want the placer's replicas >= 1 error", r, err)
		}
	}
	out, err := layout("2")
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Replicas() != 2 {
		t.Errorf("Replicas() = %d, want 2", s.Replicas())
	}
}

// TestVerifyLayoutFresh proves a freshly written layout passes verification
// at r=1 and r=2, and that the r=2 layout holds exactly twice the pages.
func TestVerifyLayoutFresh(t *testing.T) {
	var pages [3]int64
	for _, r := range []int{1, 2} {
		f, dir, _ := writeTestLayout(t, r)
		sizes, err := verifyLayout(dir, f.Len())
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		for _, n := range sizes {
			pages[r] += n
		}
		if _, err := verifyLayout(dir, f.Len()+1); err == nil {
			t.Errorf("r=%d: verification accepted a wrong record total", r)
		}
	}
	if pages[2] != 2*pages[1] {
		t.Errorf("r=2 layout holds %d pages, want 2x the r=1 layout's %d", pages[2], pages[1])
	}
}

// TestVerifyLayoutCatchesDivergentCopy flips one coordinate byte in a
// secondary copy. Verification must fail on the page checksum, and — once
// the checksum is forged to match — on the bit-for-bit comparison with the
// primary, which a record-count check alone would miss.
func TestVerifyLayoutCatchesDivergentCopy(t *testing.T) {
	f, dir, m := writeTestLayout(t, 2)
	var pl store.Placement
	for _, b := range m.Buckets {
		if b.Recs > 0 {
			pl = b
			break
		}
	}
	if pl.Recs == 0 {
		t.Fatal("layout has no non-empty bucket")
	}
	path := filepath.Join(dir, store.DiskFileName(pl.OwnerDisks[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := data[pl.OwnerPages[1]*int64(m.PageBytes):][:m.PageBytes]
	page[16] ^= 0x01 // low byte of the first record's first coordinate
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyLayout(dir, f.Len()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped coordinate byte: err = %v, want a checksum mismatch", err)
	}

	// Forge the page CRC-32C (computed with the crc field zeroed).
	binary.LittleEndian.PutUint32(page[8:], 0)
	binary.LittleEndian.PutUint32(page[8:], crc32.Checksum(page, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyLayout(dir, f.Len()); err == nil || !strings.Contains(err.Error(), "differs from the primary") {
		t.Fatalf("forged divergent copy: err = %v, want a primary mismatch", err)
	}
}

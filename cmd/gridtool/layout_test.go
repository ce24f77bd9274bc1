package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

const testPageBytes = 4096

// writeTestLayout declusters a small uniform grid file over 4 disks with
// minimax and writes it at replication factor r.
func writeTestLayout(t *testing.T, r int) (*gridfile.File, string, *store.Manifest) {
	t.Helper()
	f, err := synth.Uniform2D(600, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var m *store.Manifest
	if r > 1 {
		rm, perr := (&replica.Placer{Replicas: r}).Place(g, alloc)
		if perr != nil {
			t.Fatal(perr)
		}
		m, err = store.WriteReplicated(dir, f, rm, testPageBytes)
	} else {
		m, err = store.Write(dir, f, alloc, testPageBytes)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f, dir, m
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
	page := data[pl.OwnerPages[1]*testPageBytes:][:testPageBytes]
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

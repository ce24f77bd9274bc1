package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/core"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/replica"
	"pgridfile/internal/synth"
)

// buildReplicatedLayout writes an r-way minimax layout of a uniform 2-D
// dataset under t.TempDir.
func buildReplicatedLayout(t *testing.T, disks, r int) (string, *gridfile.File, *replica.Map) {
	t.Helper()
	f, err := synth.Uniform2D(1200, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := core.FromGridFile(f)
	alloc, err := (&core.Minimax{Seed: 1}).Decluster(g, disks)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := (&replica.Placer{Replicas: r}).Place(g, alloc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteReplicated(dir, f, rm, 4096); err != nil {
		t.Fatal(err)
	}
	return dir, f, rm
}

// TestWriteReplicatedRoundTrip proves every copy of every bucket is
// independently readable and identical to the primary: the layout the
// failover path depends on actually holds r intact copies.
func TestWriteReplicatedRoundTrip(t *testing.T) {
	const disks, r = 4, 2
	dir, f, rm := buildReplicatedLayout(t, disks, r)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Replicas() != r {
		t.Fatalf("Replicas() = %d, want %d", s.Replicas(), r)
	}
	ctx := context.Background()
	for i, v := range f.Buckets() {
		own := s.Owners(v.ID)
		if len(own) != r {
			t.Fatalf("bucket %d: %d owners, want %d", v.ID, len(own), r)
		}
		if want := rm.Owners[i]; own[0] != want[0] || own[1] != want[1] {
			t.Fatalf("bucket %d: owners %v, placer said %v", v.ID, own, want)
		}
		primary, _, err := readBucket(ctx, s, -1, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range own {
			pts, _, err := readBucket(ctx, s, d, v.ID)
			if err != nil {
				t.Fatalf("bucket %d copy on disk %d: %v", v.ID, d, err)
			}
			if len(pts) != len(primary) {
				t.Fatalf("bucket %d copy on disk %d: %d records, primary has %d",
					v.ID, d, len(pts), len(primary))
			}
		}
		// A non-owner disk must refuse, not misread another bucket's pages.
		for d := 0; d < disks; d++ {
			if d == own[0] || d == own[1] {
				continue
			}
			if _, _, err := readBucket(ctx, s, d, v.ID); err == nil {
				t.Fatalf("bucket %d read from non-owner disk %d succeeded", v.ID, d)
			}
		}
	}
}

// TestReadBucketsFromCoalesced checks the batched owner-directed read path
// (the one the server's disk goroutines use) against per-bucket reads.
func TestReadBucketsFromCoalesced(t *testing.T) {
	const disks, r = 4, 2
	dir, f, _ := buildReplicatedLayout(t, disks, r)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for d := 0; d < disks; d++ {
		var ids []int32
		for _, v := range f.Buckets() {
			for _, o := range s.Owners(v.ID) {
				if o == d {
					ids = append(ids, v.ID)
					break
				}
			}
		}
		got, _, err := readBuckets(ctx, s, d, ids, nil)
		if err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
		for k, id := range ids {
			want, _, err := readBucket(ctx, s, d, id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[k]) != len(want) {
				t.Fatalf("disk %d bucket %d: batched read %d records, single read %d",
					d, id, len(got[k]), len(want))
			}
		}
		// One foreign id must fail the whole batch with a clear error.
		for _, v := range f.Buckets() {
			owned := false
			for _, o := range s.Owners(v.ID) {
				if o == d {
					owned = true
				}
			}
			if owned {
				continue
			}
			if _, _, err := readBucket(ctx, s, d, v.ID); err == nil {
				t.Fatalf("disk %d: batch containing foreign bucket %d succeeded", d, v.ID)
			}
			break
		}
	}
}

// TestManifestVersioning pins the compatibility contract of the manifest
// envelope: every new layout (replicated or not) carries "version": 3 with
// "page_format": 2 and reads as implausible to the flat pre-replication
// schema (so old readers reject it cleanly); a future version is refused by
// name; and both older on-disk vintages — the v2 replicated envelope and
// the flat unversioned r=1 layout, each with checksum-free 8-byte page
// headers — still open and serve correctly.
func TestManifestVersioning(t *testing.T) {
	dir, _, _ := buildReplicatedLayout(t, 4, 2)
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Version != 3 {
		t.Fatalf("new manifest version = %d (err %v), want 3", env.Version, err)
	}
	if !strings.Contains(string(raw), `"page_format": 2`) {
		t.Error("new manifest does not declare the checksummed page format")
	}
	// The oldest reader parsed the whole document as a flat Manifest and
	// rejected zero disks/dims/page as implausible; the envelope hides the
	// layout behind an unknown key, so that is exactly what it sees.
	var flat Manifest
	if err := json.Unmarshal(raw, &flat); err == nil {
		if flat.Disks != 0 || flat.PageBytes != 0 {
			t.Fatalf("v3 envelope leaks layout fields into the flat schema: disks=%d page=%d",
				flat.Disks, flat.PageBytes)
		}
	}

	// r=1 layouts carry the same version bump: their pages are checksummed
	// too, so older readers must refuse them rather than misparse records.
	soloDir, _, _ := buildLayout(t, 2, 4096)
	soloRaw, err := os.ReadFile(filepath.Join(soloDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(soloRaw), `"version": 3`) {
		t.Error("r=1 layout lacks the version-3 envelope; old readers would misread its pages")
	}

	// A version this reader does not know is refused explicitly.
	doctored := []byte(strings.Replace(string(raw), `"version": 3`, `"version": 4`, 1))
	if string(doctored) == string(raw) {
		t.Fatal("could not doctor the manifest version")
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("version 4 manifest opened: err=%v", err)
	}

	// Both pre-checksum vintages still open and read back correctly.
	for _, vintage := range []string{"flat", "v2"} {
		legacyDir, f, _ := buildLayout(t, 2, 4096)
		downgradeLayout(t, legacyDir, vintage)
		s, err := Open(legacyDir)
		if err != nil {
			t.Fatalf("%s legacy layout: %v", vintage, err)
		}
		if s.Replicas() != 1 {
			t.Fatalf("%s legacy layout Replicas() = %d, want 1", vintage, s.Replicas())
		}
		if s.Checksummed() {
			t.Fatalf("%s legacy layout reports checksummed pages", vintage)
		}
		for _, v := range f.Buckets() {
			pts, _, err := readBucket(context.Background(), s, -1, v.ID)
			if err != nil {
				t.Fatalf("%s legacy bucket %d: %v", vintage, v.ID, err)
			}
			if len(pts) != v.Records {
				t.Fatalf("%s legacy bucket %d: %d records, want %d", vintage, v.ID, len(pts), v.Records)
			}
		}
		s.Close()
	}
}

// downgradeLayout rewrites a freshly-written checksummed layout into an
// older on-disk vintage: every page's 16-byte format-2 header is squeezed
// to the legacy 8-byte header (records slide forward, checksum dropped) and
// the manifest loses its page_format — emitted either as the flat
// unversioned schema ("flat") or wrapped in the v2 envelope ("v2"),
// producing a valid instance of each pre-checksum on-disk vintage.
func downgradeLayout(t *testing.T, dir, vintage string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Version int             `json:"version"`
		Layout  json.RawMessage `json:"layout"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(env.Layout, &m); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < m.Disks; d++ {
		path := filepath.Join(dir, "disk"+fmt.Sprintf("%03d", d)+".dat")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += m.PageBytes {
			page := data[off : off+m.PageBytes]
			body := append([]byte(nil), page[16:]...)
			copy(page[8:], body)
			for i := m.PageBytes - 8; i < m.PageBytes; i++ {
				page[i] = 0
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m.PageFormat = 0
	flat, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := flat
	if vintage == "v2" {
		out, err = json.MarshalIndent(struct {
			Version int             `json:"version"`
			Layout  json.RawMessage `json:"layout"`
		}{Version: 2, Layout: flat}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPickOwnerLoadAware pins read selection: primary wins ties, load shifts
// the pick to the idler owner, and exclusion models dead disks down to the
// no-owner-left case.
func TestPickOwnerLoadAware(t *testing.T) {
	dir, f, _ := buildReplicatedLayout(t, 4, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := f.Buckets()[0].ID
	own := s.Owners(id)

	if d, ok := s.PickOwner(id, nil); !ok || d != own[0] {
		t.Fatalf("idle pick = %d/%v, want primary %d", d, ok, own[0])
	}
	s.AddLoad(own[0], 10)
	if d, ok := s.PickOwner(id, nil); !ok || d != own[1] {
		t.Fatalf("pick with loaded primary = %d/%v, want secondary %d", d, ok, own[1])
	}
	s.AddLoad(own[1], 20)
	if d, ok := s.PickOwner(id, nil); !ok || d != own[0] {
		t.Fatalf("pick with both loaded = %d/%v, want lighter primary %d", d, ok, own[0])
	}
	s.AddLoad(own[0], -10)
	s.AddLoad(own[1], -20)

	if d, ok := s.PickOwner(id, func(d int) bool { return d == own[0] }); !ok || d != own[1] {
		t.Fatalf("pick excluding primary = %d/%v, want %d", d, ok, own[1])
	}
	if _, ok := s.PickOwner(id, func(int) bool { return true }); ok {
		t.Fatal("pick with every owner excluded reported a live disk")
	}
}

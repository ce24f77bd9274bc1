package store

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pgridfile/internal/geom"
	"pgridfile/internal/gridfile"
	"pgridfile/internal/synth"
)

// buildCrashLayout lays out a small uniform dataset with the given scheme
// at replication r, sized so buckets span multiple pages and inserts split.
func buildCrashLayout(t *testing.T, scheme string, disks, r int) (string, *gridfile.File) {
	t.Helper()
	f, err := synth.Uniform2D(300, 3).Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := LayoutSpec{Scheme: scheme, Seed: 1, Disks: disks, Replicas: r, PageBytes: 1024}
	if _, err := Build(dir, f, spec); err != nil {
		t.Fatal(err)
	}
	return dir, f
}

// copyLayout clones a (flat) layout directory so each crash trial starts
// from the identical on-disk state.
func copyLayout(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashOp is one step of the mutation sequence driven against the store.
type crashOp struct {
	del bool
	key geom.Point
}

// crashOps builds the trial sequence: a run of inserts with fresh keys
// followed by deletes of alternating inserted keys, so recovery is checked
// for both op types and for delete-after-insert interleavings.
func crashOps(dom geom.Rect) []crashOp {
	keys := randKeys(dom, 8, 33)
	ops := make([]crashOp, 0, len(keys)+len(keys)/2)
	for _, k := range keys {
		ops = append(ops, crashOp{key: k})
	}
	for i := 1; i < len(keys); i += 2 {
		ops = append(ops, crashOp{del: true, key: keys[i]})
	}
	return ops
}

// applyUntilCrash runs the sequence against an open writable store whose
// crash hook is already armed. It returns the index of the op that observed
// the simulated crash (len(ops) if none did).
func applyUntilCrash(t *testing.T, s *Store, ops []crashOp) int {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.del {
			_, err = s.Delete(context.Background(), op.key)
		} else {
			_, err = s.Insert(context.Background(), op.key)
		}
		if err != nil {
			if !errors.Is(err, errSimulatedCrash) {
				t.Fatalf("op %d failed with a non-crash error: %v", i, err)
			}
			return i
		}
	}
	return len(ops)
}

// TestCrashRecoveryAtEveryFailpoint is the recovery property test: for a
// matrix of allocator families and replication factors, the write path is
// killed at EVERY crash point — before/after each per-disk journal fsync and
// before/after each replica page write — and the store reopened. The
// property: every acknowledged operation is durable, no never-attempted
// operation appears, the single in-flight op is either fully applied or
// fully absent (never half), and every bucket's replica copies come back
// checksum-valid and byte-identical.
func TestCrashRecoveryAtEveryFailpoint(t *testing.T) {
	schemes := familySchemes
	if testing.Short() {
		// The full matrix is ~12 configs x ~200 crash trials; -short keeps
		// one weight-based and one index-based family.
		schemes = []string{"minimax", "DM/D"}
	}
	for _, name := range schemes {
		for _, r := range []int{1, 2} {
			t.Run(name+"/r="+string(rune('0'+r)), func(t *testing.T) {
				t.Parallel()
				testCrashRecovery(t, name, r)
			})
		}
	}
}

func testCrashRecovery(t *testing.T, scheme string, r int) {
	const disks = 3
	base, f := buildCrashLayout(t, scheme, disks, r)
	ops := crashOps(f.Domain())

	// Dry run: count the crash points the full sequence passes through.
	total := 0
	{
		dir := copyLayout(t, base)
		s, err := OpenWritable(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCheckpointEvery(0)
		s.w.crash = func() bool { total++; return false }
		if got := applyUntilCrash(t, s, ops); got != len(ops) {
			t.Fatalf("dry run crashed at op %d", got)
		}
		s.Close()
	}
	if total == 0 {
		t.Fatal("no crash points traversed")
	}

	for k := 1; k <= total; k++ {
		dir := copyLayout(t, base)
		s, err := OpenWritable(dir)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		s.SetCheckpointEvery(0)
		calls := 0
		s.w.crash = func() bool { calls++; return calls == k }
		crashed := applyUntilCrash(t, s, ops)
		if crashed == len(ops) {
			t.Fatalf("k=%d: hook never fired (%d calls)", k, calls)
		}
		s.CloseNoCheckpoint() // kill -9: no checkpoint, manifest+grid stale

		// Recovery: reopen replays the journals.
		s2, err := OpenWritable(dir)
		if err != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, err)
		}
		grid := s2.Grid()

		// Expected visibility per key. Ops before `crashed` were acked; the
		// op at `crashed` is in flight (either outcome is legal, but never a
		// torn half-state — the full-store verification below catches those);
		// ops after were never attempted.
		for i, op := range ops {
			if i >= crashed {
				break
			}
			// Was this key's final acked state inserted or deleted?
			inserted := false
			ambiguous := false
			for j, other := range ops {
				if !samePoint(other.key, op.key) {
					continue
				}
				switch {
				case j < crashed:
					inserted = !other.del
				case j == crashed:
					ambiguous = true // in-flight op targets this key
				}
			}
			if ambiguous {
				continue
			}
			got := len(grid.Lookup(op.key))
			if inserted && got == 0 {
				t.Fatalf("k=%d: acked insert %v lost after recovery", k, op.key)
			}
			if !inserted && got != 0 {
				t.Fatalf("k=%d: acked delete of %v undone after recovery", k, op.key)
			}
		}
		if crashed < len(ops) {
			// The in-flight op is all-or-nothing: for an insert the key is
			// stored at most once; verifyStoreMatchesGrid proves whatever
			// state won is consistent across grid, store and replicas.
			if op := ops[crashed]; !op.del {
				if n := len(grid.Lookup(op.key)); n > 1 {
					t.Fatalf("k=%d: in-flight insert applied %d times", k, n)
				}
			}
		}
		verifyStoreMatchesGrid(t, s2, grid)
		s2.Close()
	}
}

func samePoint(a, b geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

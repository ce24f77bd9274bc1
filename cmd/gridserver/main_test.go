package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgridfile/internal/store"
	"pgridfile/internal/synth"
)

// writeTestLayout builds a small r-way minimax layout (checksummed pages,
// so it is writable) plus a standalone grid file under t.TempDir.
func writeTestLayout(t *testing.T, records, disks, r int) (layoutDir, gridPath string) {
	t.Helper()
	f, err := synth.Uniform2D(records, 11).Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := store.DefaultLayoutSpec()
	spec.Disks, spec.Replicas = disks, r
	layoutDir = filepath.Join(t.TempDir(), "layout")
	if _, err := store.Build(layoutDir, f, spec); err != nil {
		t.Fatal(err)
	}
	gridPath = filepath.Join(t.TempDir(), "test.grd")
	gf, err := os.Create(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	return layoutDir, gridPath
}

// TestBenchStoreMode serves a layout in-process and runs the closed-loop
// load against it, asserting a clean (zero-error) report.
func TestBenchStoreMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4, 1)
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "200", "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, filepath.Base(dir)) {
		t.Errorf("report does not name the layout:\n%s", out)
	}
	if !strings.Contains(out, "p95") || !strings.Contains(out, "fetch imbalance") {
		t.Errorf("report missing latency/imbalance columns:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, filepath.Base(dir)) {
			fields := strings.Fields(line)
			// scheme r queries errors qps p50 p95 p99 imbalance ...
			if len(fields) < 4 || fields[3] != "0" {
				t.Errorf("bench reported errors: %q", line)
			}
		}
	}
}

// TestBenchChaosMode runs the closed-loop load with one disk killed through
// the -fault flag and degraded mode on: the run must finish with zero
// errors, and the report's trailing column must count the partial answers.
func TestBenchChaosMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4, 1)
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "200", "-seed", "7",
		"-fault", "store.read.disk0:err", "-degraded", "-cache-bytes", "0",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "degraded") {
		t.Errorf("report missing degraded column:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, filepath.Base(dir)) {
			fields := strings.Fields(line)
			// scheme r queries errors ... degraded failover
			if len(fields) < 5 || fields[3] != "0" {
				t.Errorf("chaos bench reported errors: %q", line)
			}
			if fields[len(fields)-2] == "0" {
				t.Errorf("dead disk produced zero degraded answers: %q", line)
			}
		}
	}

	// A malformed spec must fail the run up front.
	if err := runBench([]string{
		"-store", dir, "-queries", "10", "-fault", "store.read:bogus",
	}, &bytes.Buffer{}); err == nil {
		t.Error("malformed -fault spec accepted")
	}
}

// TestBenchOpenLoopMode drives the open-loop harness against an in-process
// server with pipelining on, and checks the report (table and JSON) carries
// the offered/achieved rates and intended-send-time percentiles.
func TestBenchOpenLoopMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4, 1)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-open-loop", "-rate", "500", "-duration", "500ms",
		"-pipeline", "8", "-clients", "2", "-seed", "7", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"offered qps", "achieved qps", "p999 ms", "max lag ms", "sustained"} {
		if !strings.Contains(out, col) {
			t.Errorf("open-loop report missing %q column:\n%s", col, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r["mode"] != "open" || r["arrivals"] != "poisson" || r["pipeline"] != float64(8) {
		t.Errorf("row metadata wrong: %v", r)
	}
	if off := r["offered_qps"].(float64); off != 500 {
		t.Errorf("offered_qps = %v, want 500", off)
	}
	// Elapsed includes draining the in-flight tail after the last arrival,
	// which is a visible fraction of a 500ms run; the strict 95% bound is
	// scripts/openloop.sh's job on a 2s run.
	if ach := r["achieved_qps"].(float64); ach < 0.8*500 {
		t.Errorf("achieved_qps = %v: tiny layout could not sustain 500 qps", ach)
	}
	if errs := r["errors"].(float64); errs != 0 {
		t.Errorf("open-loop run had %v errors", errs)
	}
	for _, k := range []string{"p50_ms", "p99_ms", "p999_ms"} {
		if v, ok := r[k].(float64); !ok || v <= 0 {
			t.Errorf("%s = %v, want positive latency", k, r[k])
		}
	}
}

// TestBenchSweepMode runs a two-step rate sweep and checks each step yields
// a row with the sustained/knee annotations.
func TestBenchSweepMode(t *testing.T) {
	dir, _ := writeTestLayout(t, 400, 4, 1)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-sweep", "200:2:2", "-duration", "400ms",
		"-pipeline", "4", "-clients", "2", "-seed", "7", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) > 2 {
		t.Fatalf("sweep produced %d rows, want 1-2", len(rows))
	}
	if off := rows[0]["offered_qps"].(float64); off != 200 {
		t.Errorf("first step offered %v, want 200", off)
	}
	if len(rows) == 2 {
		if off := rows[1]["offered_qps"].(float64); off != 400 {
			t.Errorf("second step offered %v, want 400", off)
		}
	}

	// Malformed sweep specs fail up front.
	for _, bad := range []string{"200", "0:2:3", "200:1:3", "200:2:0", "a:b:c"} {
		if err := runBench([]string{"-store", dir, "-sweep", bad}, &bytes.Buffer{}); err == nil {
			t.Errorf("malformed -sweep %q accepted", bad)
		}
	}
}

// TestBenchGridMode declusters one grid file under two schemes, at one and
// at two replication factors, and benchmarks every layout: one clean
// comparison row per scheme and factor, and the r=2 rows store every
// bucket twice.
func TestBenchGridMode(t *testing.T) {
	_, grid := writeTestLayout(t, 500, 4, 1)
	for _, tc := range []struct {
		replicas string
		rows     []string
	}{
		{"1", []string{"minimax", "DM/D"}},
		{"1,2", []string{"minimax r=1", "minimax r=2", "DM/D r=1", "DM/D r=2"}},
	} {
		jsonPath := filepath.Join(t.TempDir(), "rows.json")
		err := runBench([]string{
			"-grid", grid, "-algs", "minimax,DM/D", "-disks", "4", "-replicas", tc.replicas,
			"-clients", "2", "-queries", "120", "-json", jsonPath,
		}, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("-replicas %s: %v", tc.replicas, err)
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var rows []benchRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(tc.rows) {
			t.Fatalf("-replicas %s: %d rows, want %v", tc.replicas, len(rows), tc.rows)
		}
		for i, row := range rows {
			if row.Scheme != tc.rows[i] {
				t.Errorf("-replicas %s: row %d is %q, want %q", tc.replicas, i, row.Scheme, tc.rows[i])
			}
			if row.Errors != 0 {
				t.Errorf("%s: %d errors", row.Scheme, row.Errors)
			}
			if strings.HasSuffix(tc.rows[i], "r=2") && (row.Replicas != 2 || row.WriteAmp != 2) {
				t.Errorf("%s: replicas %d, write amplification %g, want 2 and 2", row.Scheme, row.Replicas, row.WriteAmp)
			}
		}
	}
}

func TestBenchFlagValidation(t *testing.T) {
	if err := runBench(nil, &bytes.Buffer{}); err == nil {
		t.Error("no mode flag accepted")
	}
	dir, grid := writeTestLayout(t, 200, 2, 1)
	if err := runBench([]string{"-store", dir, "-grid", grid}, &bytes.Buffer{}); err == nil {
		t.Error("two mode flags accepted")
	}
	if err := runBench([]string{"-grid", grid, "-algs", "bogus", "-queries", "10"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := runBench([]string{"-store", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Error("missing layout accepted")
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := runServe([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve without -store accepted")
	}
	if err := runServe([]string{"-store", filepath.Join(t.TempDir(), "nope"), "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve with missing layout accepted")
	}
}

// TestIngestCrashReplay runs the ingest subcommand with one disk's page
// writes killed: the JSON report must show zero lost acks, a clean scrub,
// and a replay that actually happened.
func TestIngestCrashReplay(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4, 2)
	var buf bytes.Buffer
	err := runIngest([]string{
		"-store", dir, "-n", "500", "-seed", "3",
		"-fault", "store.write.disk0:err",
	}, &buf)
	if err != nil {
		t.Fatalf("ingest: %v\n%s", err, buf.String())
	}
	var rep ingestReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("bad report JSON: %v\n%s", err, buf.String())
	}
	if !rep.OK || rep.LostAcks != 0 || rep.ScrubCorrupt != 0 {
		t.Fatalf("ingest report not clean: %+v", rep)
	}
	if rep.Acked == 0 || rep.Replayed == 0 {
		t.Fatalf("ingest did not exercise the journal: %+v", rep)
	}
}

func TestIngestFlagValidation(t *testing.T) {
	if err := runIngest(nil, &bytes.Buffer{}); err == nil {
		t.Error("ingest without -store accepted")
	}
	if err := runIngest([]string{"-store", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Error("ingest with missing layout accepted")
	}
}

// TestBenchWriteFrac mixes INSERTs into the closed loop against an
// in-process writable server; the JSON rows must carry the acked write and
// journal counters.
func TestBenchWriteFrac(t *testing.T) {
	dir, _ := writeTestLayout(t, 600, 4, 2)
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	var buf bytes.Buffer
	err := runBench([]string{
		"-store", dir, "-clients", "4", "-queries", "300", "-seed", "5",
		"-write-frac", "0.3", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	row := rows[0]
	if row.Errors != 0 {
		t.Errorf("write-mix bench reported %d errors", row.Errors)
	}
	if row.WritesSent == 0 || row.WritesAcked != row.WritesSent {
		t.Errorf("writes sent %d, acked %d; want all acked", row.WritesSent, row.WritesAcked)
	}
	if row.Inserts != int64(row.WritesAcked) {
		t.Errorf("server inserts %d, client acked %d", row.Inserts, row.WritesAcked)
	}
	if row.JournalAppends != 2*row.Inserts {
		t.Errorf("journal appends %d, want %d (r=2)", row.JournalAppends, 2*row.Inserts)
	}
	// Invalid fractions and open-loop combinations are rejected.
	if err := runBench([]string{"-store", dir, "-write-frac", "1.5"}, &bytes.Buffer{}); err == nil {
		t.Error("-write-frac 1.5 accepted")
	}
	if err := runBench([]string{"-store", dir, "-write-frac", "0.2", "-open-loop"}, &bytes.Buffer{}); err == nil {
		t.Error("-write-frac with -open-loop accepted")
	}
}

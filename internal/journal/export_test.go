package journal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestExportFrom covers the tail read-out: whole log, mid-log suffix,
// nothing-to-ship, and the snapshot-baseline path after compaction.
func TestExportFrom(t *testing.T) { forEachStore(t, testExportFrom) }

func testExportFrom(t *testing.T, st store) {
	j, rec := openOn(t, st, Options{SegmentBytes: 64})
	defer j.Close()
	if !rec.Empty() {
		t.Fatalf("fresh journal not empty: %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%02d-padding-to-force-rotation", i))
		want = append(want, p)
		if _, err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}

	checkRecords := func(ex *Export, from int) {
		t.Helper()
		if ex.FromLSN != uint64(from+1) || ex.NextLSN != 11 {
			t.Fatalf("export range [%d,%d), want [%d,11)", ex.FromLSN, ex.NextLSN, from+1)
		}
		if len(ex.Records) != len(want)-from {
			t.Fatalf("exported %d records, want %d", len(ex.Records), len(want)-from)
		}
		for i, p := range ex.Records {
			if !bytes.Equal(p, want[from+i]) {
				t.Fatalf("record %d mismatch: %q", from+i, p)
			}
		}
	}

	ex, err := j.ExportFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Snapshot != nil {
		t.Fatal("unexpected snapshot baseline before compaction")
	}
	checkRecords(ex, 0)

	ex, err = j.ExportFrom(6)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(ex, 5)

	ex, err = j.ExportFrom(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Records) != 0 || ex.FromLSN != 11 || ex.NextLSN != 11 {
		t.Fatalf("up-to-date export should be empty, got %+v", ex)
	}

	// Two snapshots compact the early segments away; an export from LSN 1
	// must now fall back to the newest snapshot baseline.
	for i := 0; i < 2; i++ {
		if err := j.Snapshot([]byte("state@10")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Append([]byte("record-11")); err != nil {
		t.Fatal(err)
	}
	ex, err = j.ExportFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if ex.SnapshotLSN != 10 || !bytes.Equal(ex.Snapshot, []byte("state@10")) {
		t.Fatalf("want snapshot baseline @10, got @%d %q", ex.SnapshotLSN, ex.Snapshot)
	}
	if ex.FromLSN != 11 || ex.NextLSN != 12 || len(ex.Records) != 1 || !bytes.Equal(ex.Records[0], []byte("record-11")) {
		t.Fatalf("baseline export tail wrong: %+v", ex)
	}
}

// TestAbsorb follows a primary journal by its exports: in-order tails
// land under the primary's LSNs, a repeated tail is skipped, a tail past
// the next LSN is refused as a gap, a compacted-away past arrives as a
// snapshot baseline, and the follower can serve the same log onward.
func TestAbsorb(t *testing.T) { forEachStore(t, testAbsorb) }

func testAbsorb(t *testing.T, st store) {
	primary, _ := openOn(t, newMemStore(), Options{SegmentBytes: 64})
	defer primary.Close()
	follower, _ := openOn(t, st, Options{})
	defer follower.Close()
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := primary.Append(payloadN(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	absorb := func(from uint64) (bool, error) {
		t.Helper()
		ex, err := primary.ExportFrom(from)
		if err != nil {
			t.Fatal(err)
		}
		return follower.Absorb(ex)
	}

	appendN(0, 4)
	if ok, err := absorb(1); !ok || err != nil {
		t.Fatalf("first absorb = %v, %v", ok, err)
	}
	if ok, err := absorb(1); ok || err != nil {
		t.Fatalf("repeated absorb = %v, %v; want no advance", ok, err)
	}
	appendN(4, 8)
	if ok, err := absorb(7); ok || !errors.Is(err, ErrGap) {
		t.Fatalf("absorb past a hole = %v, %v; want ErrGap", ok, err)
	}
	if ok, err := absorb(follower.NextLSN()); !ok || err != nil {
		t.Fatalf("catch-up absorb = %v, %v", ok, err)
	}
	if got := follower.NextLSN(); got != 9 {
		t.Fatalf("follower NextLSN = %d, want 9", got)
	}

	// Two snapshots compact the primary's early segments away; a lagging
	// follower's next pull must arrive as a baseline that replaces its log.
	appendN(8, 20)
	for i := 0; i < 2; i++ {
		if err := primary.Snapshot([]byte("state@20")); err != nil {
			t.Fatal(err)
		}
	}
	appendN(20, 22)
	if ok, err := absorb(follower.NextLSN()); !ok || err != nil {
		t.Fatalf("baseline absorb = %v, %v", ok, err)
	}
	want, err := primary.ExportFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.ExportFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapshotLSN != 20 || !bytes.Equal(got.Snapshot, want.Snapshot) ||
		got.NextLSN != want.NextLSN || len(got.Records) != len(want.Records) {
		t.Fatalf("follower log = snap@%d %q + %d records to %d, want snap@%d + %d records to %d",
			got.SnapshotLSN, got.Snapshot, len(got.Records), got.NextLSN,
			want.SnapshotLSN, len(want.Records), want.NextLSN)
	}
	for i := range want.Records {
		if !bytes.Equal(got.Records[i], want.Records[i]) {
			t.Fatalf("record %d = %q, want %q", got.FromLSN+uint64(i), got.Records[i], want.Records[i])
		}
	}
	// A takeover continues the sequence where the primary left it.
	if lsn, err := follower.Append([]byte("after takeover")); err != nil || lsn != 23 {
		t.Fatalf("follower append = LSN %d, %v; want 23", lsn, err)
	}
	if _, err := follower.Absorb(&Export{FromLSN: 1, NextLSN: 3, Records: [][]byte{{1}}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absorbing a short export: %v, want ErrCorrupt", err)
	}
}

// TestOpenWithoutDirStaysInMemory: an empty Dir selects the memory
// store, which touches no file system and still serves exports.
func TestOpenWithoutDirStaysInMemory(t *testing.T) {
	j, rec, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !rec.Empty() || j.Dir() != "" {
		t.Fatalf("fresh memory journal: recovery %+v, dir %q", rec, j.Dir())
	}
	if _, err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	ex, err := j.ExportFrom(1)
	if err != nil || len(ex.Records) != 1 || ex.NextLSN != 2 {
		t.Fatalf("export = %+v, %v", ex, err)
	}
}

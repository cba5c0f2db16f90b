package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openT opens a journal in dir, failing the test on error.
func openT(t *testing.T, opts Options) (*Journal, *Recovery) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return j, rec
}

// openOn opens a journal over st, failing the test on error. Opening
// the same store again recovers it, as a restart would.
func openOn(t *testing.T, st store, opts Options) (*Journal, *Recovery) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	j, rec, err := open(opts, st)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return j, rec
}

// forEachStore runs body once per storage backend, each time over a
// fresh, empty store: on disk and in memory.
func forEachStore(t *testing.T, body func(t *testing.T, st store)) {
	t.Run("disk", func(t *testing.T) { body(t, dirStore(t.TempDir())) })
	t.Run("memory", func(t *testing.T) { body(t, newMemStore()) })
}

// segmentCount reports how many segment files st holds.
func segmentCount(t *testing.T, st store) int {
	t.Helper()
	names, err := st.list()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal") {
			n++
		}
	}
	return n
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendAndRecover(t *testing.T) { forEachStore(t, testAppendAndRecover) }

func testAppendAndRecover(t *testing.T, st store) {
	j, rec := openOn(t, st, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh journal reported recovery state: %+v", rec)
	}
	const n = 25
	for i := 0; i < n; i++ {
		lsn, err := j.Append(payloadN(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2 := openOn(t, st, Options{})
	defer j2.Close()
	if rec2.Snapshot != nil {
		t.Fatal("unexpected snapshot")
	}
	if len(rec2.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), n)
	}
	for i, p := range rec2.Records {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payloadN(i))
		}
	}
	if got := j2.NextLSN(); got != n+1 {
		t.Fatalf("NextLSN = %d, want %d", got, n+1)
	}
}

func TestSnapshotAndCompaction(t *testing.T) { forEachStore(t, testSnapshotAndCompaction) }

func testSnapshotAndCompaction(t *testing.T, st store) {
	// Tiny segments force rotation so compaction has something to delete.
	j, _ := openOn(t, st, Options{SegmentBytes: 64, KeepSnapshots: 1})
	for i := 0; i < 10; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction must have removed segments fully covered by the snapshot.
	if n := segmentCount(t, st); n >= 10 {
		t.Fatalf("compaction left %d segments", n)
	}

	j2, rec := openOn(t, st, Options{})
	defer j2.Close()
	if string(rec.Snapshot) != "state@10" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if rec.SnapshotLSN != 10 {
		t.Fatalf("SnapshotLSN = %d", rec.SnapshotLSN)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("replay tail has %d records, want 4", len(rec.Records))
	}
	for i, p := range rec.Records {
		if !bytes.Equal(p, payloadN(10+i)) {
			t.Fatalf("tail record %d = %q", i, p)
		}
	}
}

func TestNewerSnapshotWins(t *testing.T) { forEachStore(t, testNewerSnapshotWins) }

func testNewerSnapshotWins(t *testing.T, st store) {
	j, _ := openOn(t, st, Options{})
	for i := 0; i < 3; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("new")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, rec := openOn(t, st, Options{})
	defer j2.Close()
	if string(rec.Snapshot) != "new" || rec.SnapshotLSN != 4 || len(rec.Records) != 0 {
		t.Fatalf("recovery = snap %q @%d + %d records", rec.Snapshot, rec.SnapshotLSN, len(rec.Records))
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(payloadN(3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip a payload byte in the newest snapshot; recovery must fall back
	// to the older one and replay the records past it.
	name := filepath.Join(dir, "snap-0000000000000004.snap")
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-5] ^= 0xFF
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if string(rec.Snapshot) != "good" || rec.SnapshotLSN != 3 {
		t.Fatalf("fell back to snap %q @%d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], payloadN(3)) {
		t.Fatalf("replay tail = %q", rec.Records)
	}
}

func TestAbandonLosesNothingWithFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Abandon() // crash: close fds without the Close-path sync

	j2, rec := openT(t, Options{Dir: dir})
	defer j2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records after crash, want 5", len(rec.Records))
	}
}

func TestClosedJournalErrors(t *testing.T) { forEachStore(t, testClosedJournalErrors) }

func testClosedJournalErrors(t *testing.T, st store) {
	j, _ := openOn(t, st, Options{})
	j.Close()
	if _, err := j.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Snapshot([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close: %v", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
	if _, err := j.Absorb(&Export{FromLSN: 1, NextLSN: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Absorb after Close: %v", err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		back, err := ParseFsyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v: %v, %v", p, back, err)
		}
	}
}

// TestCrashConsistency is the satellite crash suite: build a small log,
// then truncate the (single) segment at EVERY byte offset and require
// recovery to yield a valid prefix of the original records — never an
// error, never a mangled or reordered record, and appends must work
// afterwards. This simulates a kill at each possible point of a torn
// final write.
func TestCrashConsistency(t *testing.T) {
	master := t.TempDir()
	j, _ := openT(t, Options{Dir: master})
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segBase := filepath.Base(segs[0])

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segBase), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// Every recovered record must be an exact prefix of the originals.
		if len(rec.Records) > n {
			t.Fatalf("cut=%d: recovered %d records from a %d-record log", cut, len(rec.Records), n)
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, payloadN(i)) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, p, payloadN(i))
			}
		}
		// The journal must accept new appends at the right LSN and
		// recover them on a further reopen (no second-crash amnesia).
		lsn, err := j2.Append([]byte("post-crash"))
		if err != nil {
			t.Fatalf("cut=%d: post-crash append: %v", cut, err)
		}
		if want := uint64(len(rec.Records)) + 1; lsn != want {
			t.Fatalf("cut=%d: post-crash LSN %d, want %d", cut, lsn, want)
		}
		if err := j2.Close(); err != nil {
			t.Fatalf("cut=%d: Close: %v", cut, err)
		}
		j3, rec3, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if want := len(rec.Records) + 1; len(rec3.Records) != want {
			t.Fatalf("cut=%d: reopen recovered %d records, want %d", cut, len(rec3.Records), want)
		}
		j3.Close()
	}
}

// TestCrashConsistencyWithSnapshot repeats the cut sweep with a snapshot
// in place: however the tail is torn, the snapshot plus a record prefix
// must survive.
func TestCrashConsistencyWithSnapshot(t *testing.T) {
	master := t.TempDir()
	j, _ := openT(t, Options{Dir: master})
	for i := 0; i < 4; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("snap@4")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Records 5..8 live in the post-snapshot portion of the segment; cut
	// the segment at every offset and require snapshot + prefix.
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v (%v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := os.ReadFile(filepath.Join(master, "snap-0000000000000004.snap"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000004.snap"), snapB, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			// A cut below the snapshot's covered LSN loses records the
			// snapshot claims — recovery must refuse loudly, not
			// fabricate state. (Impossible under the fsync invariant:
			// Snapshot syncs the log first.)
			continue
		}
		if string(rec.Snapshot) != "snap@4" || rec.SnapshotLSN != 4 {
			t.Fatalf("cut=%d: snapshot %q @%d", cut, rec.Snapshot, rec.SnapshotLSN)
		}
		if len(rec.Records) > 4 {
			t.Fatalf("cut=%d: %d tail records", cut, len(rec.Records))
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, payloadN(4+i)) {
				t.Fatalf("cut=%d: tail record %d = %q", cut, i, p)
			}
		}
		j2.Close()
	}
}

// TestSegmentRotationChain verifies multi-segment recovery ordering and
// that a gap in the chain is a hard error rather than silent data loss.
func TestSegmentRotationChain(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 48})
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("rotation produced only %d segments", len(segs))
	}

	j2, rec := openT(t, Options{Dir: dir})
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(rec.Records), n)
	}
	j2.Close()

	// Remove a middle segment: the chain has a hole, recovery must fail.
	sortedSegs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err := os.Remove(sortedSegs[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil {
		t.Fatal("recovery with a missing middle segment did not fail")
	}
}

// TestCorruptMiddleSegmentFails: corruption anywhere but the final
// segment means acknowledged records are unrecoverable — a hard error.
func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, SegmentBytes: 48})
	for i := 0; i < 12; i++ {
		if _, err := j.Append(payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Logf: func(string, ...any) {}}); err == nil {
		t.Fatal("recovery with a corrupt non-final segment did not fail")
	}
}

package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitDurability pins the FsyncGroup contract: once Append
// returns, the record survives a crash — exactly FsyncAlways's promise,
// shared-fsync implementation notwithstanding. Concurrent appenders
// hammer the journal, it is abandoned (fds closed with no final sync,
// as in a kill), and recovery must yield every acknowledged record.
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Fsync: FsyncGroup})

	const (
		writers = 8
		each    = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	appends, syncs := j.Appends(), j.Syncs()
	j.Abandon() // crash: no Close-path sync may save us

	_, rec, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, want := len(rec.Records), writers*each; got != want {
		t.Fatalf("recovered %d records after crash, want %d (all were acknowledged)", got, want)
	}
	if syncs > appends {
		t.Fatalf("group commit issued %d fsyncs for %d appends", syncs, appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.1f records/fsync)",
		appends, syncs, float64(appends)/float64(syncs))
}

// TestGroupCommitCoalesces forces observable coalescing: with a real
// stall window, a round's leader dallies while the other appenders pile
// on, so the fsync count lands far below the append count.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, Options{Dir: dir, Fsync: FsyncGroup, GroupStall: 2 * time.Millisecond})
	defer j.Close()

	const (
		writers = 8
		each    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	appends, syncs := j.Appends(), j.Syncs()
	if appends != writers*each {
		t.Fatalf("appends = %d, want %d", appends, writers*each)
	}
	// Every stalled round should cover several appenders' records; even
	// a slow box coalesces far better than one fsync per append.
	if syncs*2 > appends {
		t.Fatalf("expected coalescing: %d fsyncs for %d appends", syncs, appends)
	}
}

// TestGroupCrashConsistency runs the byte-level torn-write sweep (the
// same discipline as TestCrashConsistency) over a log built under
// FsyncPolicy group with concurrent appenders: truncate the segment at
// every byte offset, and recovery must always yield a clean prefix of
// the record stream, accept appends, and survive a reopen.
func TestGroupCrashConsistency(t *testing.T) {
	master := t.TempDir()
	j, _ := openT(t, Options{Dir: master, Fsync: FsyncGroup})
	const (
		writers = 4
		each    = 2
	)
	// Concurrent appenders interleave nondeterministically, so record
	// identity is by LSN: recovery order must match on-disk order, which
	// we learn from a clean first recovery.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
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
	jc, recClean, err := Open(Options{Dir: master, Logf: t.Logf})
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	jc.Close()
	canonical := recClean.Records
	if len(canonical) != writers*each {
		t.Fatalf("clean recovery found %d records, want %d", len(canonical), writers*each)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segBase), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(Options{Dir: dir, Fsync: FsyncGroup, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if len(rec.Records) > len(canonical) {
			t.Fatalf("cut=%d: recovered %d records from a %d-record log", cut, len(rec.Records), len(canonical))
		}
		for i, p := range rec.Records {
			if !bytes.Equal(p, canonical[i]) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, p, canonical[i])
			}
		}
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

// TestGroupPolicyParses pins the config-file spelling round trip.
func TestGroupPolicyParses(t *testing.T) {
	p, err := ParseFsyncPolicy("group")
	if err != nil || p != FsyncGroup {
		t.Fatalf("ParseFsyncPolicy(group) = %v, %v", p, err)
	}
	if got := FsyncGroup.String(); got != "group" {
		t.Fatalf("FsyncGroup.String() = %q", got)
	}
}

// TestGroupRotationUnderConcurrency crosses segment boundaries while
// many appenders race: rotation must wait out in-flight rounds (never
// yanking the segment from under a leader's fsync) and lose nothing.
func TestGroupRotationUnderConcurrency(t *testing.T) {
	forEachStore(t, testGroupRotationUnderConcurrency)
}

func testGroupRotationUnderConcurrency(t *testing.T, st store) {
	j, _ := openOn(t, st, Options{Fsync: FsyncGroup, SegmentBytes: 512})

	const (
		writers = 6
		each    = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d-padding-to-force-rotation", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openOn(t, st, Options{})
	if got, want := len(rec.Records), writers*each; got != want {
		t.Fatalf("recovered %d records across rotations, want %d", got, want)
	}
	if n := segmentCount(t, st); n < 2 {
		t.Fatalf("test never rotated (%d segments); shrink SegmentBytes", n)
	}
}

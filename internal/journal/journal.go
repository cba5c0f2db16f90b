// Package journal is Mykil's durability layer: a segmented, CRC32C-framed,
// append-only write-ahead log plus point-in-time snapshots, stored in one
// directory per node — or, with no directory given, in memory, where it
// still numbers, snapshots, compacts and exports records the same way
// but nothing survives the process. An area controller (or the
// registration server) appends one record per state mutation and
// periodically writes a full state snapshot; after a crash, Open finds
// the newest valid snapshot, replays the record tail behind it, and
// truncates any torn final record instead of failing. Restart thereby becomes a local replay rather than a
// network-wide rejoin storm (the §IV failure model's worst case at scale).
//
// The journal stores opaque byte payloads; callers define record and
// snapshot encodings (internal/wire/codec in this repo). Layout:
//
//	seg-<firstLSN>.wal    record frames, rotated at SegmentBytes
//	snap-<throughLSN>.snap one snapshot frame covering records ≤ throughLSN
//
// Records are numbered by LSN starting at 1. Each frame is a uvarint
// payload length, the payload, and a CRC32C of the payload, so a torn
// write is detectable at any byte offset. Fsync policy is configurable:
// FsyncAlways survives power loss per record, FsyncInterval bounds loss to
// a time window, FsyncNever leaves flushing to the OS.
package journal

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mykil/internal/clock"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the cost of one fsync per mutation.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs when FsyncEvery has elapsed since the last
	// sync, bounding loss to one interval of records.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system. Process
	// crashes lose nothing (the OS holds the pages); power loss may.
	FsyncNever
	// FsyncGroup coalesces concurrent appends into shared pile writes
	// and shared fsyncs (group commit): appends land in an in-memory
	// pile and join a round; each round's leader writes the whole pile
	// with one syscall and syncs once, while the next round gathers
	// under its sync window. Durability equals FsyncAlways — no Append
	// returns before its record is on stable storage — but N concurrent
	// appenders share O(1) write+fsync pairs instead of paying N.
	FsyncGroup
)

// String returns the policy's config-file spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	case FsyncGroup:
		return "group"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval", "never", or "group".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	case "group":
		return FsyncGroup, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always|interval|never|group)", s)
}

// Defaults for zero-valued Options fields.
const (
	DefaultSegmentBytes    = 4 << 20
	DefaultMemSegmentBytes = 64 << 10 // for a journal kept in memory
	DefaultFsyncEvery      = 100 * time.Millisecond
	DefaultKeepSnaps       = 2
)

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory, created if absent. Empty keeps the
	// journal in memory: replication and export work as on disk, syncs
	// cost nothing, and nothing survives the process.
	Dir string
	// Fsync selects the sync policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncEvery spaces syncs under FsyncInterval; 0 means 100ms.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it reaches this size;
	// 0 means 4 MiB on disk, 64 KiB in memory.
	SegmentBytes int64
	// KeepSnapshots retains this many snapshots after compaction (older
	// segments are deleted once covered by the oldest kept snapshot);
	// 0 means 2, so one corrupt snapshot never strands recovery.
	KeepSnapshots int
	// GroupStall bounds how long an FsyncGroup leader dallies before
	// issuing its fsync, giving concurrent appenders time to pile onto
	// the round. The leader yields the scheduler in a loop and stops
	// early once no new appends arrive between yields (the herd has
	// drained), so GroupStall is a ceiling, not a fixed delay. Zero
	// (the default) means no deliberate stall: the leader syncs
	// immediately and still absorbs every record written while the
	// previous sync was in flight — the natural batch. Only meaningful
	// under FsyncGroup.
	GroupStall time.Duration
	// Logf, if set, receives recovery and compaction notes.
	Logf func(format string, args ...any)
	// Clock drives the FsyncInterval policy; nil means the wall clock.
	// Tests inject a fake clock so interval-sync behavior replays
	// deterministically.
	Clock clock.Clock
}

func (o *Options) fillDefaults() {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = DefaultKeepSnaps
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
}

// Recovery reports what Open found in the store: the newest valid snapshot (if
// any) and the record tail to replay on top of it.
type Recovery struct {
	// Snapshot is the newest valid snapshot payload, nil when none exists.
	Snapshot []byte
	// SnapshotLSN is the LSN the snapshot covers through (0 with no
	// snapshot). Records carries every record with a higher LSN.
	SnapshotLSN uint64
	// Records is the replay tail, in LSN order starting at SnapshotLSN+1.
	Records [][]byte
	// TruncatedBytes counts torn final-record bytes discarded from the
	// last segment during recovery.
	TruncatedBytes int64
}

// Empty reports whether the journal held no usable state at all.
func (r *Recovery) Empty() bool {
	return r == nil || (r.Snapshot == nil && len(r.Records) == 0)
}

// Journal is an open write-ahead log. Safe for concurrent appenders;
// methods lock internally. Under FsyncGroup, concurrent Appends
// coalesce their fsyncs (see FsyncGroup).
type Journal struct {
	opts Options
	st   store

	mu       sync.Mutex
	seg      segment // active segment
	segSize  int64
	nextLSN  uint64
	lastSync time.Time
	snaps    []uint64 // through-LSNs of stored snapshots, ascending
	segStats []uint64 // first LSNs of stored segments, ascending (incl. active)
	closed   bool

	// Group commit (FsyncGroup). The leader drops mu for the physical
	// fsync; rotation and close wait out an in-flight round first so the
	// segment handle never changes under it.
	gcCond      *sync.Cond // signaled when a round's sync completes or the journal closes
	gcSyncing   bool       // a leader's pile write + fsync is in flight
	gcSyncedLSN uint64     // highest LSN proven durable
	gcGather    *gcRound   // round still accepting members, nil when none
	// Under FsyncGroup, appends land in gcPending instead of the segment
	// file; the round leader writes the whole pile with one syscall
	// before its one fsync, so per-record cost is an encode plus a
	// memcpy. An acked record is always flushed and synced; a buffered
	// record belongs to an Append that has not returned, which a crash
	// may legally lose. gcSpare is the double buffer the leader swaps in
	// so appends keep piling while it writes.
	gcPending []byte
	gcSpare   []byte

	appends   int64
	syncs     int64
	snapshots int64

	scratch []byte
}

// gcRound is one group-commit round. Its leader closes done exactly
// once, after err is set; followers block on done without touching the
// journal mutex again.
type gcRound struct {
	done chan struct{}
	err  error // read only after done is closed
}

// Open creates or recovers the journal in opts.Dir, or creates an empty
// one in memory when opts.Dir is empty. The returned Recovery describes
// stored state for the caller to rebuild from; appending continues at the
// next LSN in a fresh segment (a previously torn tail is physically
// truncated first, so segments never interleave live and dead bytes).
func Open(opts Options) (*Journal, *Recovery, error) {
	if opts.Dir == "" {
		return OrMemory(nil, opts), &Recovery{}, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	return open(opts, dirStore(opts.Dir))
}

// OrMemory returns j, or a fresh journal kept in memory when j is nil:
// how a component handed no journal still journals. opts.Dir is ignored.
func OrMemory(j *Journal, opts Options) *Journal {
	if j != nil {
		return j
	}
	opts.Dir = ""
	if opts.SegmentBytes <= 0 {
		// A memory segment is a slice, so rotating costs nothing; small
		// ones let compaction hand memory back and keep each export's
		// read short.
		opts.SegmentBytes = DefaultMemSegmentBytes
	}
	m, _, err := open(opts, newMemStore())
	if err != nil {
		// An empty memory store has nothing to recover and no file
		// that can fail to open.
		panic(fmt.Sprintf("journal: opening a memory journal: %v", err))
	}
	return m
}

// open creates or recovers a journal over st.
func open(opts Options, st store) (*Journal, *Recovery, error) {
	opts.fillDefaults()
	j := &Journal{opts: opts, st: st, nextLSN: 1}
	j.gcCond = sync.NewCond(&j.mu)
	rec, err := j.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := j.openSegment(); err != nil {
		return nil, nil, err
	}
	return j, rec, nil
}

// Dir returns the journal directory, "" for a journal kept in memory.
func (j *Journal) Dir() string { return j.opts.Dir }

// NextLSN returns the LSN the next Append will receive.
func (j *Journal) NextLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN
}

// Appends reports how many records were appended through this handle.
func (j *Journal) Appends() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Syncs reports how many fsyncs this handle performed.
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// ErrClosed reports use of a closed journal.
var ErrClosed = errors.New("journal: closed")

// Append writes one record and applies the fsync policy. It returns the
// record's LSN.
func (j *Journal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	lsn, err := j.writeLocked(payload)
	if err != nil {
		return 0, err
	}
	ride, err := j.maybeSyncLocked(lsn)
	if err != nil {
		return 0, err
	}
	if ride != nil {
		// A group-commit round is gathering and will cover this record;
		// block on its done channel with the lock released, so a record
		// costs one lock hold however deep the pile is.
		j.mu.Unlock()
		<-ride.done
		j.mu.Lock()
		if ride.err != nil {
			return 0, ride.err
		}
	}
	return lsn, nil
}

// writeLocked frames one record into the active segment — under
// FsyncGroup into the pending pile — rotating first when the segment is
// full, and assigns its LSN. Syncing is the caller's business.
func (j *Journal) writeLocked(payload []byte) (uint64, error) {
	if j.segSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	j.scratch = AppendRecord(j.scratch[:0], payload)
	if j.opts.Fsync == FsyncGroup {
		// Buffer the encoded record; the round leader (or any flush
		// point) writes the pile in one syscall. segSize still counts
		// the logical segment size so rotation fires on schedule.
		j.gcPending = append(j.gcPending, j.scratch...)
	} else if _, err := j.seg.Write(j.scratch); err != nil {
		return 0, fmt.Errorf("journal: appending record %d: %w", j.nextLSN, err)
	}
	j.segSize += int64(len(j.scratch))
	lsn := j.nextLSN
	j.nextLSN++
	j.appends++
	return lsn, nil
}

// ErrGap reports an export that starts past the journal's next LSN:
// records in between are missing, and the export must be re-requested
// from NextLSN.
var ErrGap = errors.New("journal: export starts past the next LSN")

// Absorb appends another journal's export — the segment stream a replica
// receives from its primary — so this journal holds the same records
// under the same LSNs and can itself serve them onward after a takeover.
// A baseline snapshot covering at least everything held replaces the
// whole log; records already held are skipped. It reports whether the
// log advanced, and ErrGap when the export leaves a hole. A baseline
// reset is not crash-atomic on disk: a crash inside one leaves a
// directory that recovery refuses rather than a mixed log.
func (j *Journal) Absorb(ex *Export) (bool, error) {
	if ex.FromLSN+uint64(len(ex.Records)) != ex.NextLSN || (ex.FromLSN == 0 && len(ex.Records) > 0) {
		return false, fmt.Errorf("%w: export [%d,%d) carries %d records", ErrCorrupt, ex.FromLSN, ex.NextLSN, len(ex.Records))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return false, ErrClosed
	}
	advanced := false
	if ex.Snapshot != nil && ex.SnapshotLSN >= j.nextLSN {
		if err := j.resetLocked(ex.SnapshotLSN, ex.Snapshot); err != nil {
			return false, err
		}
		advanced = true
	}
	if ex.FromLSN > j.nextLSN {
		return advanced, ErrGap
	}
	if ex.NextLSN <= j.nextLSN {
		return advanced, nil
	}
	for _, p := range ex.Records[j.nextLSN-ex.FromLSN:] {
		if _, err := j.writeLocked(p); err != nil {
			return true, err
		}
	}
	return true, j.syncLocked()
}

// resetLocked replaces the whole log with one snapshot covering through
// lsn; appends resume at lsn+1.
func (j *Journal) resetLocked(lsn uint64, state []byte) error {
	j.awaitGroupIdleLocked()
	if err := j.flushPendingLocked(); err != nil {
		return err
	}
	if err := j.writeSnapshotLocked(lsn, state); err != nil {
		return err
	}
	if err := j.seg.Close(); err != nil {
		return err
	}
	j.seg = nil
	for _, old := range j.snaps {
		j.removeFile(snapName(old))
	}
	for _, first := range j.segStats {
		j.removeFile(segName(first))
	}
	j.snaps = []uint64{lsn}
	j.segStats = nil
	j.nextLSN = lsn + 1
	if j.gcSyncedLSN < lsn {
		j.gcSyncedLSN = lsn
	}
	return j.openSegment()
}

// maybeSyncLocked applies the fsync policy after appending record lsn.
// Under FsyncGroup it may return a gathering round instead of blocking:
// the caller must release the lock and wait on the round's done channel.
func (j *Journal) maybeSyncLocked(lsn uint64) (*gcRound, error) {
	switch j.opts.Fsync {
	case FsyncAlways:
		return nil, j.syncLocked()
	case FsyncInterval:
		if j.opts.Clock.Now().Sub(j.lastSync) >= j.opts.FsyncEvery {
			return nil, j.syncLocked()
		}
	case FsyncGroup:
		return j.groupSyncLocked(lsn)
	}
	return nil, nil
}

// groupSyncLocked drives record lsn toward stable storage, sharing
// fsyncs with concurrent appenders. The first arrival with no round
// gathering leads one: it waits out the previous round's sync — that
// fsync window is this round's natural gather window — optionally
// dallies GroupStall, then captures its target and pile, syncs once,
// and publishes the outcome by closing the round's done channel,
// returning (nil, err). An arrival while a round gathers rides it:
// the gathering round is returned for the caller to wait on after
// releasing the lock (its leader captures its target only after
// leaving the gather phase, so it covers this record). Followers thus
// block on a channel, not on the mutex.
func (j *Journal) groupSyncLocked(lsn uint64) (*gcRound, error) {
	if j.gcSyncedLSN >= lsn {
		return nil, nil // already proven durable (rotation, Sync, a past round)
	}
	if j.closed {
		return nil, ErrClosed
	}
	if r := j.gcGather; r != nil {
		return r, nil
	}
	r := &gcRound{done: make(chan struct{})}
	j.gcGather = r
	for j.gcSyncing && !j.closed {
		j.gcCond.Wait() // the previous round's sync is the gather window
	}
	if j.opts.GroupStall > 0 && !j.closed {
		// Dally with the lock released so more appenders can pile on
		// before the sync is issued. Yielding instead of sleeping keeps
		// the gather window tight: timer wheels overshoot microsecond
		// sleeps badly, while Gosched hands the CPU straight to the
		// piling appenders, and the drain check cuts the stall short
		// once they stop arriving.
		start := j.opts.Clock.Now()
		idle := 0
		for !j.closed {
			before := j.nextLSN
			j.mu.Unlock()
			runtime.Gosched()
			j.mu.Lock()
			if j.opts.Clock.Now().Sub(start) >= j.opts.GroupStall {
				break
			}
			if j.nextLSN == before {
				// One empty cycle can just be an unrelated goroutine
				// taking its scheduler turn; two in a row means the
				// herd has truly drained.
				if idle++; idle >= 2 {
					break
				}
			} else {
				idle = 0
			}
		}
	}
	j.gcGather = nil // later arrivals start the next round
	if j.closed {
		r.err = ErrClosed
		close(r.done)
		return nil, ErrClosed
	}
	if j.gcSyncedLSN >= j.nextLSN-1 {
		// A rotation or explicit Sync flushed and synced the whole pile
		// while this round gathered; nothing left to prove.
		close(r.done)
		return nil, nil
	}
	target := j.nextLSN - 1
	seg := j.seg
	// Take the whole pile and swap in the spare buffer, so appends keep
	// accumulating for the next round while this one writes and syncs
	// with the lock released. Every record with LSN <= target is either
	// already in the file or in this pile — both reads happen under the
	// same lock hold as the target capture.
	pending := j.gcPending
	j.gcPending = j.gcSpare[:0]
	j.gcSyncing = true
	j.mu.Unlock()
	var err error
	if len(pending) > 0 {
		if _, werr := seg.Write(pending); werr != nil {
			err = fmt.Errorf("group flush through LSN %d: %w", target, werr)
		}
	}
	if err == nil {
		err = seg.Sync()
	}
	j.mu.Lock()
	j.gcSpare = pending[:0]
	j.gcSyncing = false
	if err == nil {
		if j.gcSyncedLSN < target {
			j.gcSyncedLSN = target
		}
		j.lastSync = j.opts.Clock.Now()
		j.syncs++
	} else {
		err = fmt.Errorf("journal: fsync: %w", err)
	}
	j.gcCond.Broadcast() // wake the next leader, rotation, or Close
	r.err = err
	close(r.done)
	return nil, err
}

// awaitGroupIdleLocked waits out any in-flight group-commit round. The
// segment handle must not be swapped or closed under a leader's fsync.
func (j *Journal) awaitGroupIdleLocked() {
	for j.gcSyncing {
		j.gcCond.Wait()
	}
}

// flushPendingLocked writes group-mode buffered records to the active
// segment. Callers hold mu and must have waited out any in-flight round
// first (awaitGroupIdleLocked), so this write never interleaves with a
// leader's unlocked pile write. On error the buffer is still consumed:
// the partially written tail is a legal torn record for recovery to
// truncate, exactly as a failed direct append would be.
func (j *Journal) flushPendingLocked() error {
	if len(j.gcPending) == 0 {
		return nil
	}
	_, err := j.seg.Write(j.gcPending)
	j.gcPending = j.gcPending[:0]
	if err != nil {
		return fmt.Errorf("journal: flushing group-commit buffer: %w", err)
	}
	return nil
}

func (j *Journal) syncLocked() error {
	// A leader's unlocked pile write must never interleave with the
	// flush below; rounds are impossible under the other policies, so
	// this wait is free there.
	j.awaitGroupIdleLocked()
	if err := j.flushPendingLocked(); err != nil {
		return err
	}
	if err := j.seg.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.lastSync = j.opts.Clock.Now()
	j.syncs++
	// A full sync under the lock proves every record appended so far
	// durable (earlier segments were synced at rotation); group-commit
	// waiters covered by it need no round of their own.
	if j.gcSyncedLSN < j.nextLSN-1 {
		j.gcSyncedLSN = j.nextLSN - 1
		j.gcCond.Broadcast()
	}
	return nil
}

// Sync forces the active segment to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// Snapshot writes a snapshot covering every record appended so far, then
// compacts: snapshots beyond KeepSnapshots and segments fully covered by
// the oldest kept snapshot are deleted. The snapshot is stored in one
// atomic step, so a crash mid-write never corrupts an existing snapshot.
func (j *Journal) Snapshot(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// The snapshot must not claim records the log hasn't made durable.
	if err := j.syncLocked(); err != nil {
		return err
	}
	through := j.nextLSN - 1
	if err := j.writeSnapshotLocked(through, state); err != nil {
		return err
	}
	// Replace any snapshot at the same LSN (no new records since last
	// snapshot), then compact.
	j.snaps = append(removeLSN(j.snaps, through), through)
	sort.Slice(j.snaps, func(a, b int) bool { return j.snaps[a] < j.snaps[b] })
	j.compactLocked()
	return nil
}

// writeSnapshotLocked stores one snapshot frame covering through lsn.
func (j *Journal) writeSnapshotLocked(through uint64, state []byte) error {
	if err := j.st.writeAtomic(snapName(through), AppendRecord(snapMagic(), state)); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	j.syncDir()
	j.snapshots++
	return nil
}

// compactLocked drops snapshots beyond KeepSnapshots and segments fully
// covered by the oldest kept snapshot.
func (j *Journal) compactLocked() {
	for len(j.snaps) > j.opts.KeepSnapshots {
		old := j.snaps[0]
		j.snaps = j.snaps[1:]
		j.removeFile(snapName(old))
	}
	if len(j.snaps) == 0 {
		return
	}
	cover := j.snaps[0] // oldest kept snapshot covers through this LSN
	// A non-final segment's last LSN is the next segment's first minus 1.
	for len(j.segStats) > 1 && j.segStats[1] <= cover+1 {
		first := j.segStats[0]
		j.segStats = j.segStats[1:]
		j.removeFile(segName(first))
	}
}

// removeFile deletes one journal file. Failures are logged, not fatal:
// a leftover file is covered by a newer snapshot or segment.
func (j *Journal) removeFile(name string) {
	if err := j.st.remove(name); err != nil {
		j.opts.Logf("journal: removing %s: %v", name, err)
	}
}

// rotateLocked seals the active segment and starts a new one.
func (j *Journal) rotateLocked() error {
	j.awaitGroupIdleLocked()
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.seg.Close(); err != nil {
		return err
	}
	j.seg = nil
	return j.openSegment()
}

// openSegment starts a fresh segment at nextLSN. Called at Open and on
// rotation; the previous segment, if any, is already closed.
func (j *Journal) openSegment() error {
	f, err := j.st.create(segName(j.nextLSN))
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if _, err := f.Write(segMagic()); err != nil {
		_ = f.Close() // the header-write error is the one worth reporting
		return fmt.Errorf("journal: segment header: %w", err)
	}
	j.seg = f
	j.segSize = int64(len(segMagic()))
	j.segStats = append(j.segStats, j.nextLSN)
	j.syncDir()
	return nil
}

// syncDir makes segment creations, snapshot renames and removals
// durable. Failures are logged, not fatal: data-file syncs already
// happened.
func (j *Journal) syncDir() {
	if err := j.st.syncDir(); err != nil {
		j.opts.Logf("journal: dir sync: %v", err)
	}
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.awaitGroupIdleLocked()
	j.closed = true
	j.gcCond.Broadcast() // release any followers queued for a next round
	if err := j.flushPendingLocked(); err != nil {
		_ = j.seg.Close()
		return err
	}
	if err := j.seg.Sync(); err != nil {
		_ = j.seg.Close() // the sync error is the one worth reporting
		return err
	}
	return j.seg.Close()
}

// Abandon closes file descriptors without syncing — it simulates a crash
// for tests and drills: everything not yet flushed by the fsync policy is
// at the OS's mercy, exactly as in a real kill.
func (j *Journal) Abandon() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	j.gcCond.Broadcast() // waiters see closed and return ErrClosed
	//lint:ignore errcheck-io Abandon simulates a crash: losing unflushed bytes is the point, so a close error carries no information the caller could act on
	j.seg.Close()
}

func segName(firstLSN uint64) string { return fmt.Sprintf("seg-%016x.wal", firstLSN) }
func snapName(through uint64) string { return fmt.Sprintf("snap-%016x.snap", through) }
func removeLSN(s []uint64, v uint64) []uint64 {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

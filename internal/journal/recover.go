package journal

import (
	"fmt"
	"sort"
	"strings"
)

// recover scans the journal's store, selects the newest valid snapshot,
// replays and validates the segment chain, and physically truncates any
// torn tail in the final segment. It fills j.snaps, j.segStats, and
// j.nextLSN; the caller then opens a fresh segment for new appends.
func (j *Journal) recover() (*Recovery, error) {
	names, err := j.st.list()
	if err != nil {
		return nil, fmt.Errorf("journal: scanning dir: %w", err)
	}
	var segFirsts, snapLSNs []uint64
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			var lsn uint64
			if _, err := fmt.Sscanf(name, "seg-%016x.wal", &lsn); err == nil && segName(lsn) == name {
				segFirsts = append(segFirsts, lsn)
			} else {
				j.opts.Logf("journal: ignoring unparseable file %s", name)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			var lsn uint64
			if _, err := fmt.Sscanf(name, "snap-%016x.snap", &lsn); err == nil && snapName(lsn) == name {
				snapLSNs = append(snapLSNs, lsn)
			} else {
				j.opts.Logf("journal: ignoring unparseable file %s", name)
			}
		case strings.HasSuffix(name, ".tmp"):
			// A snapshot that crashed before its rename; never valid.
			_ = j.st.remove(name)
		}
	}
	sort.Slice(segFirsts, func(a, b int) bool { return segFirsts[a] < segFirsts[b] })
	sort.Slice(snapLSNs, func(a, b int) bool { return snapLSNs[a] < snapLSNs[b] })

	rec := &Recovery{}

	// Newest valid snapshot wins; an unreadable one falls back to the
	// next older, whose covered records are still on disk (compaction
	// only deletes segments below the OLDEST kept snapshot).
	for i := len(snapLSNs) - 1; i >= 0; i-- {
		lsn := snapLSNs[i]
		state, err := j.readSnapshot(lsn)
		if err != nil {
			j.opts.Logf("journal: snapshot %s unusable, trying older: %v", snapName(lsn), err)
			snapLSNs = snapLSNs[:i]
			continue
		}
		rec.Snapshot = state
		rec.SnapshotLSN = lsn
		break
	}
	j.snaps = snapLSNs

	// Replay the segment chain. Every record must have a contiguous LSN:
	// a segment's first record carries the LSN in its filename, and the
	// next segment must begin exactly where the previous one ended.
	nextLSN := rec.SnapshotLSN + 1
	if len(segFirsts) > 0 {
		if segFirsts[0] > rec.SnapshotLSN+1 {
			// Records between the snapshot (or LSN 1) and the oldest
			// segment are gone; nothing can reconstruct them.
			return nil, fmt.Errorf("journal: gap: snapshot covers through %d but oldest segment starts at %d", rec.SnapshotLSN, segFirsts[0])
		}
		nextLSN = segFirsts[0]
	}

	kept := segFirsts[:0]
	for i, first := range segFirsts {
		if first != nextLSN && i > 0 {
			return nil, fmt.Errorf("journal: gap: expected segment starting at %d, found %d", nextLSN, first)
		}
		last := i == len(segFirsts)-1
		payloads, truncated, err := j.readSegment(first, last)
		if err != nil {
			return nil, fmt.Errorf("journal: segment %s: %w", segName(first), err)
		}
		rec.TruncatedBytes += truncated
		for k, p := range payloads {
			if lsn := first + uint64(k); lsn > rec.SnapshotLSN {
				rec.Records = append(rec.Records, p)
			}
		}
		nextLSN = first + uint64(len(payloads))
		if last && len(payloads) == 0 {
			// A fully torn (or legitimately empty) final segment: remove
			// it so the fresh segment Open creates can take its name.
			if err := j.st.remove(segName(first)); err != nil {
				return nil, fmt.Errorf("journal: removing empty segment: %w", err)
			}
			continue
		}
		kept = append(kept, first)
	}
	j.segStats = kept
	j.nextLSN = nextLSN
	if rec.SnapshotLSN >= j.nextLSN {
		return nil, fmt.Errorf("journal: snapshot covers through %d but log ends at %d", rec.SnapshotLSN, j.nextLSN-1)
	}
	if !rec.Empty() || rec.TruncatedBytes > 0 {
		j.opts.Logf("journal: recovered snapshot@%d + %d record(s), truncated %d torn byte(s)",
			rec.SnapshotLSN, len(rec.Records), rec.TruncatedBytes)
	}
	return rec, nil
}

// readSegment validates the segment starting at LSN first and returns its
// record payloads (copied, in order). For the final segment, a torn or corrupt tail is
// physically truncated to the last valid record boundary and reported in
// truncated; for any earlier segment the same condition is a hard error,
// because records after it exist and the chain would silently skip LSNs.
func (j *Journal) readSegment(first uint64, last bool) (payloads [][]byte, truncated int64, err error) {
	name := segName(first)
	b, err := j.st.read(name)
	if err != nil {
		return nil, 0, err
	}
	magic := segMagic()
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic) {
		if !last {
			return nil, 0, fmt.Errorf("%w: bad segment header", ErrCorrupt)
		}
		// A crash during segment creation tore the header itself; no
		// record can follow a torn header, so the whole file is dead.
		return nil, int64(len(b)), j.st.truncate(name, 0)
	}
	off := len(magic)
	for off < len(b) {
		payload, n, rerr := ReadRecord(b[off:])
		if rerr != nil {
			if !last {
				return nil, 0, rerr
			}
			truncated = int64(len(b) - off)
			if terr := j.st.truncate(name, int64(off)); terr != nil {
				return nil, 0, terr
			}
			return payloads, truncated, nil
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		payloads = append(payloads, cp)
		off += n
	}
	return payloads, 0, nil
}

// readSnapshot validates and returns the state payload of the snapshot
// covering through lsn.
func (j *Journal) readSnapshot(lsn uint64) ([]byte, error) {
	b, err := j.st.read(snapName(lsn))
	if err != nil {
		return nil, err
	}
	magic := snapMagic()
	if len(b) < len(magic) || string(b[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	payload, n, err := ReadRecord(b[len(magic):])
	if err != nil {
		return nil, err
	}
	if len(magic)+n != len(b) {
		return nil, fmt.Errorf("%w: trailing bytes after snapshot record", ErrCorrupt)
	}
	// The payload aliases the stored bytes, which are never modified:
	// a snapshot is written once and only ever replaced whole.
	return payload, nil
}

package regserver

import (
	"fmt"
	"sort"
	"time"

	"mykil/internal/journal"
	"mykil/internal/wire"
	"mykil/internal/wire/codec"
)

// The registration server's durable state is its member registry — who
// was admitted, to which controller, for how long — plus the K_shared
// epoch counter. Unlike a controller's keytree this state carries no
// random key material, so replay is plain re-application; the registry
// is what lets a restarted server answer "is this client registered?"
// and account admissions without a network-wide re-registration.

// Registry journal record kinds.
const (
	// recAdmit records one completed admission (step 4/5 emitted).
	recAdmit byte = 1
	// recKSharedEpoch records a bump of the shared ticket-key epoch.
	recKSharedEpoch byte = 2
	// recACAdd records one controller entering the directory (an area
	// split spawned it, or an operator registered it).
	recACAdd byte = 3
	// recACRemove records one controller leaving the directory (merged
	// away or decommissioned).
	recACRemove byte = 4
)

// Registry snapshot versions. V1 carried the epoch and member registry;
// V2 appends the live controller directory, so the dynamic area map
// survives a restart without replaying every add/remove.
const (
	rsSnapFormatV1 = 1
	rsSnapFormatV2 = 2
)

// DefaultSnapshotEvery is the record cadence between registry snapshots.
const DefaultSnapshotEvery = 512

// RegisteredMember is one durable admission record.
type RegisteredMember struct {
	ClientID   string
	Controller string
	Duration   time.Duration
	Admitted   time.Time
}

// appendWire appends the member's compact encoding.
func (m RegisteredMember) appendWire(b []byte) []byte {
	b = codec.AppendString(b, m.ClientID)
	b = codec.AppendString(b, m.Controller)
	b = codec.AppendVarint(b, int64(m.Duration))
	return codec.AppendTime(b, m.Admitted)
}

// readWire decodes a RegisteredMember written by appendWire.
func (m *RegisteredMember) readWire(r *codec.Reader) error {
	m.ClientID = r.String()
	m.Controller = r.String()
	m.Duration = time.Duration(r.Varint())
	m.Admitted = r.Time()
	return r.Err()
}

// registeredMinWire is the smallest encoded RegisteredMember: two empty
// length prefixes, a one-byte duration, and a two-byte timestamp.
const registeredMinWire = 5

// journalAdmit records one admission and snapshots at the cadence.
// Runs on the loop.
func (s *Server) journalAdmit(m RegisteredMember) {
	s.registry[m.ClientID] = m
	if _, err := s.cfg.Journal.Append(m.appendWire([]byte{recAdmit})); err != nil {
		s.cfg.Logf("regserver: JOURNAL APPEND FAILED (restart durability degraded): %v", err)
		return
	}
	s.recsSinceSnap++
	if s.recsSinceSnap >= s.cfg.SnapshotEvery {
		s.journalSnapshot()
	}
}

// BumpKSharedEpoch durably advances the shared ticket-key epoch — the
// hook for a future K_shared rotation sweep. Controllers are told out of
// band; the journal makes the epoch survive a restart so a rotated key
// is never rolled back to an older epoch.
func (s *Server) BumpKSharedEpoch() uint64 {
	var epoch uint64
	_ = s.loop.Call(func() {
		s.ksharedEpoch++
		epoch = s.ksharedEpoch
		b := codec.AppendUvarint([]byte{recKSharedEpoch}, epoch)
		if _, err := s.cfg.Journal.Append(b); err != nil {
			s.cfg.Logf("regserver: JOURNAL APPEND FAILED (restart durability degraded): %v", err)
		}
	})
	return epoch
}

// journalSnapshot writes the registry snapshot: version, K_shared epoch,
// every registered member in sorted ID order, and the live controller
// directory (the encoding is canonical, so identical registries produce
// identical snapshots).
func (s *Server) journalSnapshot() {
	b := []byte{rsSnapFormatV2}
	b = codec.AppendUvarint(b, s.ksharedEpoch)
	ids := make([]string, 0, len(s.registry))
	for id := range s.registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b = codec.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = s.registry[id].appendWire(b)
	}
	b = codec.AppendUvarint(b, uint64(len(s.controllers)))
	for _, ac := range s.controllers {
		b = appendACInfoWire(b, ac)
	}
	if err := s.cfg.Journal.Snapshot(b); err != nil {
		s.cfg.Logf("regserver: writing journal snapshot: %v", err)
		return
	}
	s.recsSinceSnap = 0
}

// appendACInfoWire appends one directory entry's compact encoding.
func appendACInfoWire(b []byte, ac wire.ACInfo) []byte {
	b = codec.AppendString(b, ac.ID)
	b = codec.AppendString(b, ac.Addr)
	return codec.AppendBytes(b, ac.PubDER)
}

// readACInfoWire decodes a directory entry written by appendACInfoWire.
func readACInfoWire(r *codec.Reader) (wire.ACInfo, error) {
	ac := wire.ACInfo{ID: r.String(), Addr: r.String(), PubDER: r.Bytes()}
	return ac, r.Err()
}

// acInfoMinWire is the smallest encoded directory entry: three empty
// length prefixes.
const acInfoMinWire = 3

// upsertController installs or refreshes one directory entry in place.
// Runs on the loop (or pre-Start).
func (s *Server) upsertController(ac wire.ACInfo) {
	for i := range s.controllers {
		if s.controllers[i].ID == ac.ID {
			s.controllers[i] = ac
			return
		}
	}
	s.controllers = append(s.controllers, ac)
}

// dropController removes one directory entry by ID. Runs on the loop
// (or pre-Start).
func (s *Server) dropController(id string) {
	for i := range s.controllers {
		if s.controllers[i].ID == id {
			s.controllers = append(s.controllers[:i], s.controllers[i+1:]...)
			return
		}
	}
}

// AddController registers (or refreshes) an area controller in the live
// directory and journals the change: every later join grant hands out a
// directory containing it. Split orchestration calls this with the
// freshly spawned sibling before any member is migrated, so migrants'
// future rejoins can find it.
func (s *Server) AddController(ac wire.ACInfo) error {
	if ac.ID == "" || ac.Addr == "" || len(ac.PubDER) == 0 {
		return fmt.Errorf("regserver: controller needs ID, Addr, and PubDER")
	}
	return s.loop.Call(func() {
		s.upsertController(ac)
		b := appendACInfoWire([]byte{recACAdd}, ac)
		if _, err := s.cfg.Journal.Append(b); err != nil {
			s.cfg.Logf("regserver: JOURNAL APPEND FAILED (restart durability degraded): %v", err)
			return
		}
		s.recsSinceSnap++
		if s.recsSinceSnap >= s.cfg.SnapshotEvery {
			s.journalSnapshot()
		}
	})
}

// RemoveController retires an area controller from the live directory
// and journals the change — the merge counterpart of AddController.
func (s *Server) RemoveController(id string) error {
	return s.loop.Call(func() {
		s.dropController(id)
		b := codec.AppendString([]byte{recACRemove}, id)
		if _, err := s.cfg.Journal.Append(b); err != nil {
			s.cfg.Logf("regserver: JOURNAL APPEND FAILED (restart durability degraded): %v", err)
			return
		}
		s.recsSinceSnap++
		if s.recsSinceSnap >= s.cfg.SnapshotEvery {
			s.journalSnapshot()
		}
	})
}

// Controllers reports a copy of the live directory.
func (s *Server) Controllers() []wire.ACInfo {
	var out []wire.ACInfo
	_ = s.loop.Call(func() { out = append([]wire.ACInfo(nil), s.controllers...) })
	return out
}

// restoreFromJournal rebuilds the registry from a recovery. Called from
// New, before the loop starts, so no locking is needed.
func (s *Server) restoreFromJournal(rec *journal.Recovery) error {
	if rec == nil {
		return nil
	}
	if rec.Snapshot != nil {
		r := codec.NewReader(rec.Snapshot)
		v := r.Byte()
		if r.Err() == nil && v != rsSnapFormatV1 && v != rsSnapFormatV2 {
			return fmt.Errorf("regserver: unknown registry snapshot version %d", v)
		}
		s.ksharedEpoch = r.Uvarint()
		n := r.Count(registeredMinWire)
		for i := 0; i < n; i++ {
			var m RegisteredMember
			if err := m.readWire(r); err != nil {
				return fmt.Errorf("regserver: registry snapshot member: %w", err)
			}
			s.registry[m.ClientID] = m
		}
		if v >= rsSnapFormatV2 {
			// The snapshot's directory is the truth at snapshot time; it
			// replaces the config seed entirely (a controller absent from
			// it was removed before the snapshot).
			cn := r.Count(acInfoMinWire)
			s.controllers = make([]wire.ACInfo, 0, cn)
			for i := 0; i < cn; i++ {
				ac, err := readACInfoWire(r)
				if err != nil {
					return fmt.Errorf("regserver: registry snapshot controller: %w", err)
				}
				s.controllers = append(s.controllers, ac)
			}
		}
		if err := r.Finish(); err != nil {
			return fmt.Errorf("regserver: registry snapshot: %w", err)
		}
	}
	for i, p := range rec.Records {
		r := codec.NewReader(p)
		switch kind := r.Byte(); kind {
		case recAdmit:
			var m RegisteredMember
			if err := m.readWire(r); err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			if err := r.Finish(); err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			s.registry[m.ClientID] = m
		case recKSharedEpoch:
			epoch := r.Uvarint()
			if err := r.Finish(); err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			s.ksharedEpoch = epoch
		case recACAdd:
			ac, err := readACInfoWire(r)
			if err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			if err := r.Finish(); err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			s.upsertController(ac)
		case recACRemove:
			id := r.String()
			if err := r.Finish(); err != nil {
				return fmt.Errorf("regserver: journal record %d: %w", i+1, err)
			}
			s.dropController(id)
		default:
			return fmt.Errorf("regserver: journal record %d: unknown kind %d", i+1, kind)
		}
	}
	s.joins.Store(int64(len(s.registry)))
	return nil
}

// Registered reports the durable admission record for a client, if any.
func (s *Server) Registered(clientID string) (RegisteredMember, bool) {
	var m RegisteredMember
	var ok bool
	_ = s.loop.Call(func() { m, ok = s.registry[clientID] })
	return m, ok
}

// NumRegistered reports the registry size.
func (s *Server) NumRegistered() int {
	var n int
	_ = s.loop.Call(func() { n = len(s.registry) })
	return n
}

// KSharedEpoch reports the durable shared ticket-key epoch.
func (s *Server) KSharedEpoch() uint64 {
	var e uint64
	_ = s.loop.Call(func() { e = s.ksharedEpoch })
	return e
}

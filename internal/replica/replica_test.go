package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mykil/internal/area"
	"mykil/internal/crypt"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

var (
	testPoolOnce sync.Once
	testPool     *crypt.Pool
)

func keyPair(t *testing.T) *crypt.KeyPair {
	t.Helper()
	testPoolOnce.Do(func() {
		testPool = crypt.NewPool(512)
		if err := testPool.Warm(4); err != nil {
			t.Fatalf("warming pool: %v", err)
		}
	})
	kp, err := testPool.Get()
	if err != nil {
		t.Fatalf("key pair: %v", err)
	}
	return kp
}

// rig hosts a backup plus a hand-driven "primary" endpoint.
type rig struct {
	t        *testing.T
	net      *simnet.Network
	backup   *Replica
	primary  transport.Transport
	priKeys  *crypt.KeyPair
	backKeys *crypt.KeyPair
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	r := &rig{
		t:        t,
		net:      simnet.New(simnet.Config{}),
		priKeys:  keyPair(t),
		backKeys: keyPair(t),
	}
	var err error
	r.primary, err = transport.NewSim(r.net, "primary")
	if err != nil {
		t.Fatalf("primary transport: %v", err)
	}
	backTr, err := transport.NewSim(r.net, "backup")
	if err != nil {
		t.Fatalf("backup transport: %v", err)
	}
	cfg := Config{
		ID:             "backup",
		Transport:      backTr,
		Keys:           r.backKeys,
		PrimaryID:      "primary",
		PrimaryPub:     r.priKeys.Public(),
		HeartbeatEvery: 20 * time.Millisecond,
		ControllerConfig: area.Config{
			KShared: crypt.NewSymKey(),
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r.backup = b
	b.Start()
	t.Cleanup(func() {
		b.Close()
		if ctrl, err := b.Promoted(); err == nil {
			ctrl.Close()
		}
		_ = backTr.Close()
		_ = r.primary.Close()
		r.net.Close()
	})
	return r
}

// sampleState builds a one-member area state.
func sampleState(t *testing.T, memberKeys *crypt.KeyPair) *area.State {
	t.Helper()
	tree := keytree.New(keytree.Config{Arity: 2})
	if _, err := tree.Join("m1"); err != nil {
		t.Fatalf("tree join: %v", err)
	}
	return &area.State{
		AreaID: "area-0",
		Tree:   tree.Export(),
		Members: []area.MemberState{{
			ID:     "m1",
			Addr:   "m1",
			PubDER: memberKeys.Public().Marshal(),
		}},
		Seq: 1,
	}
}

// baselinePush is a segment push carrying st as the snapshot baseline
// at journal LSN lsn, with no records past it — what a primary ships a
// replica whose position was compacted away.
func baselinePush(t *testing.T, st *area.State, lsn uint64) wire.SegmentPush {
	t.Helper()
	blob, err := area.EncodeState(st)
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	return wire.SegmentPush{AreaID: st.AreaID, FromLSN: lsn + 1, NextLSN: lsn + 1, SnapshotLSN: lsn, Snapshot: blob}
}

// sendPush ships one sealed segment push from the primary endpoint,
// signed by signer.
func sendPush(t *testing.T, from transport.Transport, to string, toPub crypt.PublicKey, push wire.SegmentPush, signer *crypt.KeyPair) {
	t.Helper()
	body, err := wire.SealBody(toPub, push)
	if err != nil {
		t.Fatalf("SealBody: %v", err)
	}
	f := &wire.Frame{Kind: wire.KindSegmentPush, From: from.Addr(), Body: body, Sig: signer.Sign(body)}
	if err := from.Send(to, f); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

// sendSync ships a signed state baseline at journal LSN lsn from the
// primary endpoint.
func (r *rig) sendSync(st *area.State, lsn uint64, signer *crypt.KeyPair) {
	r.t.Helper()
	sendPush(r.t, r.primary, "backup", r.backKeys.Public(), baselinePush(r.t, st, lsn), signer)
}

// sendHeartbeat ships one signed heartbeat.
func (r *rig) sendHeartbeat(seq uint64) {
	r.t.Helper()
	body, err := wire.PlainBody(wire.ReplicaHeartbeat{AreaID: "area-0", Seq: seq})
	if err != nil {
		r.t.Fatal(err)
	}
	f := &wire.Frame{Kind: wire.KindReplicaHeartbeat, From: "primary", Body: body, Sig: r.priKeys.Sign(body)}
	if err := r.primary.Send("backup", f); err != nil {
		r.t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	kp := keyPair(t)
	n := simnet.New(simnet.Config{})
	defer n.Close()
	tr, err := transport.NewSim(n, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	// HeartbeatEvery is only a bootstrap value now — the primary carries
	// the authoritative cadence in every segment push — so omitting it
	// must default rather than fail.
	r, err := New(Config{ID: "b", Transport: tr, Keys: kp, PrimaryID: "p", PrimaryPub: kp.Public()})
	if err != nil {
		t.Errorf("config without HeartbeatEvery rejected: %v", err)
	} else if r.hbEvery != DefaultHeartbeatEvery {
		t.Errorf("hbEvery = %v, want %v", r.hbEvery, DefaultHeartbeatEvery)
	}
	if _, err := New(Config{ID: "b", Transport: tr, Keys: kp, PrimaryID: "p", PrimaryPub: kp.Public(),
		Peers: []Peer{{ID: "x"}}}); err == nil {
		t.Error("peer without Addr/Pub accepted")
	}
}

func TestAbsorbsStateAndStaysQuietWhileHeartbeating(t *testing.T) {
	r := newRig(t, nil)
	st := sampleState(t, keyPair(t))
	r.sendSync(st, 1, r.priKeys)
	waitFor(t, "state absorption", 5*time.Second, r.backup.HasState)
	if got := r.backup.AppliedLSN(); got != 2 {
		t.Errorf("AppliedLSN = %d, want 2 (baseline at LSN 1)", got)
	}

	// Keep heartbeats flowing well past the takeover window; the backup
	// must not promote.
	for i := 0; i < 10; i++ {
		r.sendHeartbeat(uint64(i))
		time.Sleep(15 * time.Millisecond)
	}
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("backup promoted despite live primary")
	}
}

func TestRejectsForgedSync(t *testing.T) {
	r := newRig(t, nil)
	st := sampleState(t, keyPair(t))
	attacker := keyPair(t)
	r.sendSync(st, 1, attacker)
	time.Sleep(60 * time.Millisecond)
	if r.backup.HasState() {
		t.Error("forged sync absorbed")
	}
}

func TestIgnoresStaleSyncSeq(t *testing.T) {
	r := newRig(t, nil)
	st := sampleState(t, keyPair(t))
	r.sendSync(st, 5, r.priKeys)
	waitFor(t, "first sync", 5*time.Second, r.backup.HasState)

	// An older (replayed) baseline must not overwrite the newer one.
	empty := &area.State{AreaID: "area-0", Tree: keytree.New(keytree.Config{}).Export(), Seq: 2}
	r.sendSync(empty, 2, r.priKeys)
	time.Sleep(60 * time.Millisecond)
	if got := r.backup.AppliedLSN(); got != 6 {
		t.Errorf("stale baseline moved the log: AppliedLSN = %d, want 6", got)
	}
	if r.backup.SyncCount() != 1 {
		t.Errorf("SyncCount = %d, want 1", r.backup.SyncCount())
	}
}

func TestRejectsCorruptStateBlob(t *testing.T) {
	r := newRig(t, nil)
	sendPush(t, r.primary, "backup", r.backKeys.Public(), wire.SegmentPush{
		AreaID: "area-0", FromLSN: 2, NextLSN: 2, SnapshotLSN: 1, Snapshot: []byte("not a state blob"),
	}, r.priKeys)
	time.Sleep(60 * time.Millisecond)
	if r.backup.HasState() {
		t.Error("corrupt state blob absorbed")
	}
}

func TestPromotesAfterSilence(t *testing.T) {
	promoted := make(chan *area.Controller, 1)
	r := newRig(t, func(c *Config) {
		c.TakeoverAfter = 60 * time.Millisecond
		c.OnPromote = func(ctrl *area.Controller) { promoted <- ctrl }
	})
	memberKP := keyPair(t)
	r.sendSync(sampleState(t, memberKP), 1, r.priKeys)
	waitFor(t, "sync", 5*time.Second, r.backup.HasState)
	r.sendHeartbeat(1)
	// Now go silent; promotion must follow.
	select {
	case ctrl := <-promoted:
		if !ctrl.HasMember("m1") {
			t.Error("promoted controller lost the member")
		}
		got, err := r.backup.Promoted()
		if err != nil || got != ctrl {
			t.Errorf("Promoted() = %v, %v", got, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no promotion after primary silence")
	}
}

func TestNoPromotionWithoutState(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 40 * time.Millisecond })
	r.sendHeartbeat(1) // heartbeat but never a snapshot
	time.Sleep(300 * time.Millisecond)
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("promoted without any replicated state")
	}
}

func TestNoPromotionBeforeFirstContact(t *testing.T) {
	r := newRig(t, func(c *Config) { c.TakeoverAfter = 40 * time.Millisecond })
	// Total silence from the start: the backup has never seen the
	// primary, so it must not declare it dead.
	time.Sleep(300 * time.Millisecond)
	if _, err := r.backup.Promoted(); !errors.Is(err, ErrNotPromoted) {
		t.Error("promoted before first primary contact")
	}
}

// electionRig hosts n replicas of one area plus a hand-driven primary
// endpoint, for exercising the quorum election layer directly.
type electionRig struct {
	t       *testing.T
	net     *simnet.Network
	primary transport.Transport
	priKeys *crypt.KeyPair
	reps    []*Replica
	keys    []*crypt.KeyPair
}

func newElectionRig(t *testing.T, n int, takeover time.Duration, mutate func(i int, c *Config)) *electionRig {
	t.Helper()
	r := &electionRig{t: t, net: simnet.New(simnet.Config{}), priKeys: keyPair(t)}
	var err error
	r.primary, err = transport.NewSim(r.net, "primary")
	if err != nil {
		t.Fatalf("primary transport: %v", err)
	}
	peers := make([]Peer, n)
	trs := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		r.keys = append(r.keys, keyPair(t))
		id := fmt.Sprintf("r%d", i)
		trs[i], err = transport.NewSim(r.net, id)
		if err != nil {
			t.Fatalf("transport %s: %v", id, err)
		}
		peers[i] = Peer{ID: id, Addr: id, Pub: r.keys[i].Public()}
	}
	kShared := crypt.NewSymKey()
	for i := 0; i < n; i++ {
		others := make([]Peer, 0, n-1)
		survivors := make([]area.PeerInfo, 0, n-1)
		for o := 0; o < n; o++ {
			if o != i {
				others = append(others, peers[o])
				survivors = append(survivors, area.PeerInfo{ID: peers[o].ID, Addr: peers[o].Addr, Pub: peers[o].Pub})
			}
		}
		cfg := Config{
			ID:             peers[i].ID,
			Transport:      trs[i],
			Keys:           r.keys[i],
			PrimaryID:      "primary",
			PrimaryPub:     r.priKeys.Public(),
			HeartbeatEvery: 20 * time.Millisecond,
			TakeoverAfter:  takeover,
			Peers:          others,
			Announcer:      i == 0,
			// A winner must keep heartbeating the surviving replicas, or
			// their silence timers fire a second election against it.
			ControllerConfig: area.Config{
				AreaID:         "area-0",
				KShared:        kShared,
				Replicas:       survivors,
				HeartbeatEvery: 20 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		rep, err := New(cfg)
		if err != nil {
			t.Fatalf("New r%d: %v", i, err)
		}
		r.reps = append(r.reps, rep)
		rep.Start()
	}
	t.Cleanup(func() {
		for _, rep := range r.reps {
			rep.Close()
			if ctrl, err := rep.Promoted(); err == nil {
				ctrl.Close()
			}
		}
		for _, tr := range trs {
			_ = tr.Close()
		}
		_ = r.primary.Close()
		r.net.Close()
	})
	return r
}

// syncTo ships a signed, sealed state baseline at journal LSN lsn to one
// replica.
func (r *electionRig) syncTo(i int, st *area.State, lsn uint64) {
	r.t.Helper()
	sendPush(r.t, r.primary, r.reps[i].cfg.ID, r.keys[i].Public(), baselinePush(r.t, st, lsn), r.priKeys)
}

// promotedCount reports how many replicas promoted a controller.
func (r *electionRig) promotedCount() int {
	n := 0
	for _, rep := range r.reps {
		if _, err := rep.Promoted(); err == nil {
			n++
		}
	}
	return n
}

// TestElectionSingleWinnerAtEqualLSN: three equally caught-up replicas
// lose their primary; exactly one must assemble a quorum and promote
// (the rank stagger biases the outcome toward the highest candidate ID,
// but the hard guarantee under arbitrary scheduling is single-winner),
// and the losers must re-point their monitoring at the winner.
func TestElectionSingleWinnerAtEqualLSN(t *testing.T) {
	r := newElectionRig(t, 3, 60*time.Millisecond, nil)
	st := sampleState(t, keyPair(t))
	for i := 0; i < 3; i++ {
		r.syncTo(i, st, 1)
	}
	for i := 0; i < 3; i++ {
		rep := r.reps[i]
		waitFor(t, "sync absorption", 5*time.Second, rep.HasState)
	}
	// Primary goes silent; quorum election follows.
	waitFor(t, "election winner", 10*time.Second, func() bool {
		return r.promotedCount() >= 1
	})
	// Give a racing second candidacy every chance to (wrongly) land,
	// then check the winner's Coordinator suppressed the losers.
	time.Sleep(150 * time.Millisecond)
	if got := r.promotedCount(); got != 1 {
		var who []string
		for _, rep := range r.reps {
			if _, err := rep.Promoted(); err == nil {
				who = append(who, rep.cfg.ID)
			}
		}
		t.Fatalf("%d replicas promoted (%v), want exactly 1", got, who)
	}
	var winner *Replica
	for _, rep := range r.reps {
		if _, err := rep.Promoted(); err == nil {
			winner = rep
		}
	}
	ctrl, _ := winner.Promoted()
	if !ctrl.HasMember("m1") {
		t.Error("winner lost the replicated member")
	}
	if got := winner.Stats().Value(obs.MetricElections); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricElections, got)
	}
	for _, rep := range r.reps {
		if rep == winner {
			continue
		}
		rep.mu.Lock()
		adopted := rep.primaryID
		rep.mu.Unlock()
		if adopted != winner.cfg.ID {
			t.Errorf("%s still watches %q, want winner %q", rep.cfg.ID, adopted, winner.cfg.ID)
		}
	}
}

// TestElectionPrefersHigherLSN: a replica holding a longer replicated
// log must beat a peer with a higher ID but a shorter log.
func TestElectionPrefersHigherLSN(t *testing.T) {
	r := newElectionRig(t, 2, 60*time.Millisecond, nil)
	st := sampleState(t, keyPair(t))
	r.syncTo(0, st, 7) // r0 is further ahead...
	r.syncTo(1, st, 3) // ...than the higher-ID r1
	waitFor(t, "syncs", 5*time.Second, func() bool {
		return r.reps[0].HasState() && r.reps[1].HasState()
	})
	waitFor(t, "r0 wins on LSN", 10*time.Second, func() bool {
		_, err := r.reps[0].Promoted()
		return err == nil
	})
	time.Sleep(150 * time.Millisecond)
	if _, err := r.reps[1].Promoted(); err == nil {
		t.Error("shorter-log replica promoted too")
	}
}

// TestNoQuorumNoPromotion: a candidate that cannot reach a quorum of its
// peers must never promote, however long the primary stays silent.
func TestNoQuorumNoPromotion(t *testing.T) {
	r := newElectionRig(t, 3, 60*time.Millisecond, nil)
	st := sampleState(t, keyPair(t))
	r.syncTo(0, st, 1)
	waitFor(t, "sync", 5*time.Second, r.reps[0].HasState)
	// Kill both peers: r0 can campaign but never collect a second vote.
	r.net.Crash("r1")
	r.net.Crash("r2")
	time.Sleep(400 * time.Millisecond)
	if _, err := r.reps[0].Promoted(); err == nil {
		t.Error("promoted without a quorum")
	}
}

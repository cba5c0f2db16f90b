// Package regserver implements Mykil's registration server: the authority
// that authenticates prospective members (join protocol steps 1–3, paper
// Fig. 3), decides eligibility and membership duration from their
// authorization information, chooses an area for them, and introduces them
// to that area's controller (steps 4–5).
package regserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mykil/internal/clock"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/node"
	"mykil/internal/obs"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// sessionTTL bounds how long a half-completed join handshake is kept.
const sessionTTL = time.Minute

// Authorizer decides whether an auth-info string is eligible to join and
// for how long ("this can contain credit card information and the time
// period the client wants to stay as a member").
type Authorizer interface {
	// Authorize returns the granted membership duration, or an error if
	// the client is not eligible.
	Authorize(authInfo string) (time.Duration, error)
}

// StaticAuthorizer authorizes from a fixed table of auth-info strings.
type StaticAuthorizer map[string]time.Duration

var _ Authorizer = StaticAuthorizer(nil)

// Authorize implements Authorizer.
func (a StaticAuthorizer) Authorize(authInfo string) (time.Duration, error) {
	d, ok := a[authInfo]
	if !ok {
		return 0, fmt.Errorf("regserver: authorization rejected")
	}
	return d, nil
}

// AreaPicker chooses an area controller for a newly admitted client. The
// paper suggests proximity or load balancing.
type AreaPicker interface {
	Pick(clientID string, controllers []wire.ACInfo) wire.ACInfo
}

// StaticPicker implements the paper's proximity/administrative-policy
// assignment: a fixed client-to-controller map with a fallback for
// unmapped clients.
type StaticPicker struct {
	// Assign maps client IDs to controller IDs.
	Assign map[string]string
	// Fallback picks for clients not in Assign; nil means the first
	// controller.
	Fallback AreaPicker
}

var _ AreaPicker = (*StaticPicker)(nil)

// Pick implements AreaPicker.
func (p *StaticPicker) Pick(clientID string, controllers []wire.ACInfo) wire.ACInfo {
	if want, ok := p.Assign[clientID]; ok {
		for _, c := range controllers {
			if c.ID == want {
				return c
			}
		}
	}
	if p.Fallback != nil {
		return p.Fallback.Pick(clientID, controllers)
	}
	return controllers[0]
}

// RoundRobinPicker balances clients across controllers in rotation.
type RoundRobinPicker struct {
	mu   sync.Mutex
	next int
}

var _ AreaPicker = (*RoundRobinPicker)(nil)

// Pick implements AreaPicker.
func (p *RoundRobinPicker) Pick(_ string, controllers []wire.ACInfo) wire.ACInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	ac := controllers[p.next%len(controllers)]
	p.next++
	return ac
}

// Config parameterizes a registration server.
type Config struct {
	// Transport carries protocol frames. Required.
	Transport transport.Transport
	// Keys is the server's key pair; its public half is the well-known
	// key clients are provisioned with. Required.
	Keys *crypt.KeyPair
	// Clock drives timestamps and session expiry; nil means clock.Real.
	Clock clock.Clock
	// Auth decides eligibility. Required.
	Auth Authorizer
	// Controllers seeds the directory of area controllers (id, address,
	// public key). Required, non-empty. The live directory is dynamic:
	// AddController and RemoveController change it at runtime (area
	// splits spawn controllers, merges retire them), and every change is
	// journaled.
	Controllers []wire.ACInfo
	// Picker selects an area per client; nil means round-robin.
	Picker AreaPicker
	// Journal records the member registry, K_shared epoch and controller
	// directory. Nil means a fresh journal in memory, which survives no
	// restart.
	Journal *journal.Journal
	// Recovery, if set, is replayed into the registry before serving
	// (pass the Recovery returned by journal.Open alongside Journal).
	Recovery *journal.Recovery
	// SnapshotEvery spaces registry snapshots in records; zero means
	// DefaultSnapshotEvery.
	SnapshotEvery int
	// Observer, if set, receives structured protocol trace events for
	// the server's side of the join handshake (steps 2, 4, 5).
	Observer obs.Sink
	// Logf, if set, receives debug logging.
	Logf func(format string, args ...any)
}

// session holds one client's half-completed handshake.
type session struct {
	clientID   string
	clientAddr string
	clientPub  crypt.PublicKey
	clientDER  []byte
	nonceWC    uint64
	duration   time.Duration
	created    time.Time
}

// Server is the registration authority. Create with New, start with
// Start, stop with Close.
type Server struct {
	cfg Config
	clk clock.Clock

	// sessions holds half-completed handshakes (loop-owned).
	sessions map[string]*session
	// registry is the durable member registry (loop-owned after Start).
	registry map[string]RegisteredMember
	// controllers is the live area-controller directory (loop-owned after
	// Start), seeded from cfg.Controllers and mutated by Add/Remove.
	controllers []wire.ACInfo
	// ksharedEpoch is the durable shared ticket-key epoch (loop-owned).
	ksharedEpoch uint64
	// recsSinceSnap counts journal records since the last snapshot.
	recsSinceSnap int
	// joins counts completed admissions, for tests and load stats; atomic
	// so it stays readable after Close.
	joins atomic.Int64

	trace *obs.Tracer

	loop *node.Loop
}

// New validates the config and builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Transport == nil || cfg.Keys == nil || cfg.Auth == nil {
		return nil, fmt.Errorf("regserver: Transport, Keys, and Auth are required")
	}
	if len(cfg.Controllers) == 0 {
		return nil, fmt.Errorf("regserver: at least one area controller required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Picker == nil {
		cfg.Picker = &RoundRobinPicker{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	// A memory journal holds no OS resources, so nothing needs to close
	// the one opened here.
	cfg.Journal = journal.OrMemory(cfg.Journal, journal.Options{Clock: cfg.Clock, Logf: cfg.Logf})
	s := &Server{
		cfg:         cfg,
		clk:         cfg.Clock,
		sessions:    make(map[string]*session),
		registry:    make(map[string]RegisteredMember),
		controllers: append([]wire.ACInfo(nil), cfg.Controllers...),
	}
	s.trace = obs.NewTracer("regserver", cfg.Clock, cfg.Observer)
	if err := s.restoreFromJournal(cfg.Recovery); err != nil {
		return nil, err
	}
	s.loop = node.New(node.Config{
		Name:      "regserver",
		Transport: cfg.Transport,
		Clock:     cfg.Clock,
		TickEvery: sessionTTL / 2,
		OnFrame:   s.handle,
		OnTick:    s.pruneSessions,
		Stats:     obs.NewRegistry(obs.L("node", "regserver")),
		Logf:      cfg.Logf,
	})
	return s, nil
}

// Stats exposes the server's node-loop counters (frames, commands,
// ticks, drops).
func (s *Server) Stats() *obs.Registry { return s.loop.Stats() }

// Start launches the serving loop.
func (s *Server) Start() {
	s.loop.Start()
}

// Close stops the server and waits for its loop to exit. It does not
// close the transport, which the caller owns.
func (s *Server) Close() {
	s.loop.Close()
}

// Joins reports how many clients completed registration.
func (s *Server) Joins() int64 {
	return s.joins.Load()
}

func (s *Server) handle(f *wire.Frame) {
	switch f.Kind {
	case wire.KindJoinRequest:
		s.handleJoinRequest(f)
	case wire.KindJoinResponse:
		s.handleJoinResponse(f)
	default:
		s.cfg.Logf("regserver: ignoring frame kind %v from %s", f.Kind, f.From)
	}
}

// handleJoinRequest processes step 1 and answers with step 2.
func (s *Server) handleJoinRequest(f *wire.Frame) {
	var req wire.JoinRequest
	if err := wire.OpenBody(s.cfg.Keys, f.Body, &req); err != nil {
		s.cfg.Logf("regserver: step 1 from %s: %v", f.From, err)
		return
	}
	clientPub, err := crypt.ParsePublicKey(req.ClientPub)
	if err != nil {
		s.cfg.Logf("regserver: step 1 from %s: bad client key: %v", f.From, err)
		return
	}
	duration, err := s.cfg.Auth.Authorize(req.AuthInfo)
	if err != nil {
		s.deny(req.ClientAddr, clientPub, req.ClientID, "authorization rejected")
		return
	}

	sess := &session{
		clientID:   req.ClientID,
		clientAddr: req.ClientAddr,
		clientPub:  clientPub,
		clientDER:  req.ClientPub,
		nonceWC:    crypt.Nonce(),
		duration:   duration,
		created:    s.clk.Now(),
	}
	s.pruneSessions()
	s.sessions[req.ClientID] = sess

	// Step 2: challenge the client to prove possession of its key.
	s.trace.Step(obs.ProtoJoin, req.ClientID, 2, "JoinChallenge")
	s.sendSealed(req.ClientAddr, clientPub, wire.KindJoinChallenge, wire.JoinChallenge{
		NonceCWPlus1: req.NonceCW + 1,
		NonceWC:      sess.nonceWC,
	}, false)
}

// handleJoinResponse processes step 3 and, on success, emits steps 4 (to
// the chosen AC) and 5 (to the client).
func (s *Server) handleJoinResponse(f *wire.Frame) {
	var resp wire.JoinResponse
	if err := wire.OpenBody(s.cfg.Keys, f.Body, &resp); err != nil {
		s.cfg.Logf("regserver: step 3 from %s: %v", f.From, err)
		return
	}
	sess, ok := s.sessions[resp.ClientID]
	if ok {
		delete(s.sessions, resp.ClientID)
	}
	if !ok {
		s.cfg.Logf("regserver: step 3 for unknown session %q", resp.ClientID)
		return
	}
	if resp.NonceWCPlus1 != sess.nonceWC+1 {
		s.deny(sess.clientAddr, sess.clientPub, sess.clientID, "challenge failed")
		return
	}

	if len(s.controllers) == 0 {
		s.deny(sess.clientAddr, sess.clientPub, sess.clientID, "no area controller available")
		return
	}
	ac := s.cfg.Picker.Pick(sess.clientID, s.controllers)
	acPub, err := crypt.ParsePublicKey(ac.PubDER)
	if err != nil {
		s.cfg.Logf("regserver: controller %s has unparsable key: %v", ac.ID, err)
		return
	}
	nonceAC := crypt.Nonce()
	now := s.clk.Now()

	// Durability point: the admission is journaled before either frame
	// leaves, so a crash after the referral or grant is on the wire can
	// never produce a client whose registration the restarted server has
	// no record of (§IV).
	s.journalAdmit(RegisteredMember{
		ClientID:   sess.clientID,
		Controller: ac.ID,
		Duration:   sess.duration,
		Admitted:   now,
	})

	// Step 4: refer the client to the area controller, signed so the AC
	// can authenticate the referral's origin.
	s.trace.Step(obs.ProtoJoin, sess.clientID, 4, "JoinRefer", obs.String("ac", ac.ID))
	s.sendSealed(ac.Addr, acPub, wire.KindJoinRefer, wire.JoinRefer{
		NonceAC:    nonceAC,
		ClientID:   sess.clientID,
		ClientAddr: sess.clientAddr,
		Timestamp:  now,
		ClientPub:  sess.clientDER,
		Duration:   sess.duration,
	}, true)

	// Step 5: hand the client its AC plus the full controller directory
	// for later rejoins (§IV-B).
	s.trace.Step(obs.ProtoJoin, sess.clientID, 5, "JoinGrant", obs.String("ac", ac.ID),
		obs.Dur("duration", sess.duration))
	s.sendSealed(sess.clientAddr, sess.clientPub, wire.KindJoinGrant, wire.JoinGrant{
		NonceACPlus1: nonceAC + 1,
		AC:           ac,
		Directory:    append([]wire.ACInfo(nil), s.controllers...),
	}, true)

	s.joins.Add(1)
	s.cfg.Logf("regserver: admitted %s to area controller %s (duration %v)",
		sess.clientID, ac.ID, sess.duration)
}

// deny sends a JoinDenied sealed to the client.
func (s *Server) deny(addr string, pub crypt.PublicKey, clientID, reason string) {
	s.sendSealed(addr, pub, wire.KindJoinDenied, wire.JoinDenied{
		ClientID: clientID,
		Reason:   reason,
	}, true)
}

// sendSealed seals body to the recipient and transmits it, optionally
// signing with the server's private key.
func (s *Server) sendSealed(addr string, to crypt.PublicKey, kind wire.Kind, body wire.Marshaler, sign bool) {
	blob, err := wire.SealBody(to, body)
	if err != nil {
		s.cfg.Logf("regserver: sealing %v to %s: %v", kind, addr, err)
		return
	}
	f := &wire.Frame{Kind: kind, From: s.cfg.Transport.Addr(), Body: blob}
	if sign {
		f.Sig = s.cfg.Keys.Sign(blob)
	}
	if err := s.cfg.Transport.Send(addr, f); err != nil {
		s.cfg.Logf("regserver: sending %v to %s: %v", kind, addr, err)
	}
}

// pruneSessions drops handshakes older than sessionTTL. Runs on the loop
// — on every step-1 arrival and on the housekeeping tick, so abandoned
// handshakes are reclaimed even when no new clients show up.
func (s *Server) pruneSessions() {
	cutoff := s.clk.Now().Add(-sessionTTL)
	for id, sess := range s.sessions {
		if sess.created.Before(cutoff) {
			delete(s.sessions, id)
		}
	}
}

package main

import (
	"fmt"
	"time"

	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/simnet"
	"mykil/internal/transport"
)

// Frames one protocol run puts on a quiet network. E7b
// (mykil-bench -exp protocost) pins 8 / 7 / 4: the seven-step join plus
// the path update to the child controller; the six-step rejoin with its
// anti-cohort check (steps 4-5), plus the rekey frame of the leave just
// before it, which E7b's window takes because it snapshots as soon as
// Leave returns; and the rejoin without steps 4-5. The self-check lets
// the network fall quiet before every snapshot, so that rekey frame is
// counted with the leave (LeaveNotice plus the rekey frame) instead.
const (
	pinnedJoinFrames           = 8
	pinnedLeaveFrames          = 2
	pinnedRejoinFrames         = 6
	pinnedRejoinNoVerifyFrames = 4
)

// frameCounts is what the tap saw for one join, leave and rejoin.
type frameCounts struct{ join, leave, rejoin int64 }

// tapCounts runs one join, leave and ticket rejoin on a tiny quiet
// two-area group whose every transport is tapped, and returns the frames
// the tap saw for each. It fails unless the tap saw exactly the sends the
// network itself counted.
func tapCounts(skipVerify bool, pool *crypt.KeyPool) (c frameCounts, err error) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	rec := newRecorder()
	var trs []transport.Transport
	factory := func(name string) (transport.Transport, error) {
		tr, err := transport.NewSim(net, name)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
		return &tap{Transport: tr, rec: rec}, nil
	}
	defer func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	opts := []core.Option{
		core.WithAreas(2),
		core.WithRSABits(pool.Bits()),
		core.WithTestKeyPool(pool),
		core.WithTransportFactory(factory),
		core.WithTIdle(time.Hour),
		core.WithTActive(time.Hour),
		core.WithRekeyInterval(time.Hour),
		core.WithOpTimeout(opTimeout),
	}
	if skipVerify {
		opts = append(opts, core.WithSkipRejoinVerify())
	}
	g, err := core.New(opts...)
	if err != nil {
		return c, err
	}
	defer g.Close()
	if err := waitFor("the area tree", func() bool { return g.Controller(1).ParentID() != "" }); err != nil {
		return c, err
	}
	// Snapshot the tap and the network's own send counter once no frame
	// has been sent for a while, so each count covers one protocol run.
	type snap struct{ tap, net int64 }
	quiet := func() snap {
		prev, _ := rec.totals()
		for {
			time.Sleep(20 * time.Millisecond)
			n, _ := rec.totals()
			if n == prev {
				return snap{n, net.Stats().Value(simnet.StatSentMsgs)}
			}
			prev = n
		}
	}
	m, err := g.NewMember("probe", core.MemberConfig{})
	if err != nil {
		return c, err
	}
	s0 := quiet()
	if err := m.Join(); err != nil {
		return c, err
	}
	s1 := quiet()
	target := core.ACID(0)
	if m.ControllerID() == target {
		target = core.ACID(1)
	}
	if err := m.Leave(); err != nil {
		return c, err
	}
	s2 := quiet()
	if err := m.Rejoin(target); err != nil {
		return c, err
	}
	s3 := quiet()
	if s3.tap-s0.tap != s3.net-s0.net {
		return c, fmt.Errorf("tap counted %d frames, the network %d", s3.tap-s0.tap, s3.net-s0.net)
	}
	return frameCounts{join: s1.tap - s0.tap, leave: s2.tap - s1.tap, rejoin: s3.tap - s2.tap}, nil
}

// selfCheck proves the tap counts what the protocol sends: the tap must
// agree with the network's send counter, and its counts for one quiet
// join, leave and rejoin must equal the pinned ones.
func selfCheck(t *tally, seed int64) {
	pool, err := crypt.NewKeyPool(2, 1024, seed)
	if err != nil {
		t.fail("tap self-check", err)
		return
	}
	verified, err := tapCounts(false, pool)
	if err != nil {
		t.fail("tap self-check", err)
		return
	}
	plain, err := tapCounts(true, pool)
	if err != nil {
		t.fail("tap self-check", err)
		return
	}
	t.attempt(4)
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"join", verified.join, pinnedJoinFrames},
		{"leave", verified.leave, pinnedLeaveFrames},
		{"rejoin", verified.rejoin, pinnedRejoinFrames},
		{"rejoin without steps 4-5", plain.rejoin, pinnedRejoinNoVerifyFrames},
	} {
		if c.got != c.want {
			t.fail(fmt.Sprintf("tap self-check: %s took %d frames, pinned %d", c.what, c.got, c.want), nil)
		}
	}
}

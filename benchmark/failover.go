package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mykil/internal/core"
)

// roundPlan sets the length of each phase of one failover round.
type roundPlan struct {
	load  time.Duration // one churner plus the open-loop stream
	bulk  time.Duration // closed-loop window, per payload size
	after time.Duration // stream kept running once service is back
	rate  float64       // open-loop payloads per second
}

// crashArea is the area whose primary each round crashes: the root of
// the area tree.
const crashArea = 0

// crashLead is how long the stream runs before the primary is crashed,
// so the crash lands in steady traffic; payloads due this close before
// the crash may be lost with the primary.
const crashLead = 50 * time.Millisecond

// settleAfter is how long past the first post-crash delivery in the
// crashed area its members may still miss payloads while they all
// switch to the promoted replica.
const settleAfter = 250 * time.Millisecond

// mobilePerArea is how many standing members per area the failover
// round's churner moves; everyone else is a steady receiver.
const mobilePerArea = 2

// failoverRound stands up a fresh replicated, journaled group, runs one
// churner against the open-loop stream, measures the closed-loop data
// path, then crashes the area-0 primary under the stream and times the
// gap until an area-0 member receives area-0 data again.
//
// After the crash only payloads within one area are held to the
// exactly-once check. Across the failed area's boundary the system does
// not recover: the promoted replica is not in any controller's
// directory, so the area tree never re-forms around it. Those losses
// are counted (area.crossarea_lost) instead of failing every round.
func failoverRound(cfg runConfig, t *tally, round int, plan roundPlan) error {
	d, err := standUp(failoverShape, cfg.seed*1009+int64(round), cfg.traced, runDir(cfg.scratch, round), cfg.workers)
	if err != nil {
		t.fail("failover set-up", err)
		return err
	}
	defer d.close()
	t.add(&t.setups, d.setup.Seconds())
	// Collect the set-up's garbage, and the previous round's, before
	// anything is timed; the first round's heap is the one reported.
	if mb := heapMB(); t.heapMB == 0 {
		t.heapMB = mb
	}
	lt := cfg.layers(d)
	defer lt.stop(t)

	c := newChurn(d, t, mobilePerArea)
	steadyCo := c.steady()
	from := senders(d, steadyCo)

	// Phase A: membership churn under the open-loop stream.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		churnFor(c, 1, plan.load)
	}()
	openLoop(d, t, from, toAll(from, steadyCo), smallPayload, plan.rate, plan.load, nil)
	wg.Wait()

	// Phase B: a light closed loop over the settled group.
	bulk(d, t, from, steadyCo, 1, 1, plan.bulk)

	// Phase C: crash the area-0 primary under the stream.
	if err := d.falsePromotion(); err != nil {
		t.fail("replica took over a live primary", err)
		return err
	}
	if err := d.waitReplicas(crashArea); err != nil {
		t.fail("replicas never caught up before the crash", err)
		return err
	}
	crashAt := time.Now().Add(crashLead)
	seen := d.dp.watch(crashArea, crashAt)
	stop := make(chan struct{})
	var back time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		time.Sleep(time.Until(crashAt))
		d.net.Crash(core.ACAddr(crashArea))
		lt.crashed(crashAt)
		if err := waitFor("an area-0 delivery after the crash", func() bool {
			lt.pollPromotion()
			return !seen().IsZero()
		}); err != nil {
			t.fail("service never resumed after the primary crash", err)
			return
		}
		back = seen()
		t.add(&t.failover, ms(back.Sub(crashAt)))
		lt.failedOver(back)
		time.Sleep(plan.after)
	}()
	preCrash := d.dp.count()
	openLoop(d, t, from, withinArea(d, from, steadyCo), smallPayload, plan.rate, opTimeout, stop)
	wg.Wait()
	logf("round %d: set-up %.2fs, failover %.1fms", round, d.setup.Seconds(), ms(back.Sub(crashAt)))

	// Payloads due inside the outage are excused; every other payload
	// must have reached its whole cohort.
	inOutage := func(due time.Time) bool {
		return back.IsZero() || (!due.Before(crashAt.Add(-crashLead)) && due.Before(back.Add(settleAfter)))
	}
	d.checkData(t, 0, func(p *payload) bool { return inOutage(p.due) })
	lt.crossAreaLost(d.dp.missedAcross(preCrash, steadyCo))
	// The outage's delay is failover_p50_ms; the latency metrics time the
	// data path outside it.
	t.mu.Lock()
	t.mcast = append(t.mcast, d.dp.latencies(inOutage)...)
	t.mu.Unlock()
	d.checkDrops(t, true)
	d.checkEpochs(t)
	return nil
}

// falsePromotion reports a replica that promoted itself while no
// primary had been crashed.
func (d *deployment) falsePromotion() error {
	for a := 0; a < d.sh.areas; a++ {
		for r := 0; r < d.sh.replicas; r++ {
			if _, err := d.g.Replica(a, r).Promoted(); err == nil {
				return fmt.Errorf("%s promoted before any crash", core.ReplicaAddr(a, r))
			}
		}
	}
	return nil
}

// withinArea gives each sender a cohort of the receivers in its own area.
func withinArea(d *deployment, from []string, expect cohort) cohorts {
	out := make(cohorts, len(from))
	for _, s := range from {
		co := cohort{}
		for id := range expect {
			if id != s && d.areaOf(id) == d.areaOf(s) {
				co[id] = true
			}
		}
		out[s] = co
	}
	return out
}

// closedPart is the length of one closed-loop part. The closed-loop
// window is cut into parts of about this length, alternating the payload
// sizes, and the throughput metrics are the median part rate, so a burst
// of interference on the host moves one part, not the figure.
const closedPart = 250 * time.Millisecond

// bulk runs the closed-loop data path for dur per payload size. Each
// part starts after a forced collection: a part spans only a few
// collection cycles, and without it the garbage one part leaves would be
// collected in the next, charging the 16 KiB parts' collections to the
// 64 B parts by chance of timing.
func bulk(d *deployment, t *tally, from []string, expect cohort, workers, window int, dur time.Duration) {
	parts := max(1, int((dur+closedPart/2)/closedPart))
	for i := 0; i < parts; i++ {
		runtime.GC()
		n := closedLoop(d, t, from, expect, smallPayload, workers, window, dur/time.Duration(parts))
		runtime.GC()
		b := closedLoop(d, t, from, expect, bulkPayload, workers, window, dur/time.Duration(parts))
		logf("closed-loop part %d: %.0f deliveries/s, %.1f MB/s", i, n, b*bulkPayload/1e6)
		t.mu.Lock()
		t.deliveryRates = append(t.deliveryRates, n)
		t.bulkRates = append(t.bulkRates, b*bulkPayload/1e6)
		t.mu.Unlock()
	}
}

// waitReplicas blocks until every replica of area a reports the same
// applied journal position for several heartbeats in a row.
func (d *deployment) waitReplicas(a int) error {
	deadline := time.Now().Add(opTimeout)
	var prev uint64
	stable := 0
	for stable < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas of area %d never agreed", a)
		}
		time.Sleep(heartbeatEvery)
		pos := d.g.Replica(a, 0).AppliedLSN()
		agree := pos > 0
		for r := 1; r < d.sh.replicas; r++ {
			if d.g.Replica(a, r).AppliedLSN() != pos {
				agree = false
			}
		}
		if agree && pos == prev {
			stable++
		} else {
			stable = 0
		}
		prev = pos
	}
	return nil
}

// checkData waits for stragglers, then fails the run for every payload
// that missed a cohort member, every duplicate and every altered payload.
func (d *deployment) checkData(t *tally, from int, excused func(*payload) bool) {
	var missing, dups, corrupt int64
	_ = waitFor("in-flight payloads to land", func() bool {
		missing, dups, corrupt = d.dp.check(from, excused)
		return missing == 0
	})
	if missing > 0 {
		t.fail(fmt.Sprintf("%d payloads missed a live receiver", missing), nil)
	}
	if dups > 0 {
		t.fail(fmt.Sprintf("%d payloads delivered twice", dups), nil)
	}
	if corrupt > 0 {
		t.fail(fmt.Sprintf("%d payloads arrived altered", corrupt), nil)
	}
}

// checkDrops fails the run for any network drop outside an injected
// crash. Drops at a crashed destination are allowed only when crashed.
func (d *deployment) checkDrops(t *tally, crashed bool) {
	atCrash, other := d.drops()
	if other > 0 {
		t.fail(fmt.Sprintf("simnet dropped %d frames outside a crash", other), nil)
	}
	if atCrash > 0 && !crashed {
		t.fail(fmt.Sprintf("simnet dropped %d frames at a crashed node with no crash injected", atCrash), nil)
	}
}

// checkEpochs fails the run unless every placed member reaches its
// area's current epoch: the controller's, or, in an area whose primary
// was crashed, the newest epoch any of its members holds.
func (d *deployment) checkEpochs(t *tally) {
	for a, ids := range d.byArea() {
		var want uint64
		if d.net.Crashed(core.ACAddr(a)) {
			for _, id := range ids {
				if e := d.member(id).Epoch(); e > want {
					want = e
				}
			}
		} else {
			want = d.g.Controller(a).Epoch()
		}
		for _, id := range ids {
			m := d.member(id)
			if err := waitFor("members to reach the area epoch", func() bool { return m.Epoch() >= want }); err != nil {
				t.fail(fmt.Sprintf("member %s stuck below epoch %d of area %d", id, want, a), nil)
			}
		}
	}
}

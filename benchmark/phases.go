package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mykil/internal/core"
)

// pollEvery is the sleep between reads of a member's or controller's
// state while a phase waits for it to change.
const pollEvery = 100 * time.Microsecond

// tally is what one run measured, merged across its phases.
type tally struct {
	mu sync.Mutex

	setups []float64 // s
	heapMB float64

	join, rejoin, rekey []float64 // ms
	ops                 int64
	opsWindow           time.Duration

	mcast    [][]float64 // ms, one slice per latency window of due times
	lateness []float64   // ms, open-loop generator send time minus due time

	deliveryRates []float64 // closed-loop 64 B deliveries/s, one per part
	bulkRates     []float64 // closed-loop 16 KiB MB/s delivered, one per part

	failover []float64 // ms

	attempted, failed int64
	breaches          []string

	layer layerTally
}

// fail records one failed operation under the named check.
func (t *tally) fail(check string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	msg := check
	if err != nil {
		msg = fmt.Sprintf("%s: %v", check, err)
	}
	if len(t.breaches) < 20 {
		t.breaches = append(t.breaches, msg)
	}
}

func (t *tally) add(dst *[]float64, v float64) {
	t.mu.Lock()
	*dst = append(*dst, v)
	t.mu.Unlock()
}

func (t *tally) attempt(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waitFor polls cond until it holds or opTimeout passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(opTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// ---- Membership: leave, ticket-rejoin elsewhere, fresh join, retire ----

// churn drives closed-loop membership cycles over a deployment. One
// standing member per area is kept out of the cycle as the area's epoch
// sampler; up to mobile others per area move between areas, and every
// member never moved is a steady receiver that must get every payload.
type churn struct {
	d       *deployment
	t       *tally
	mu      sync.Mutex
	pool    [][]string // per area: members free to move, FIFO
	sampler []string   // per area: the member whose Epoch() times rekeys
	moving  map[string]bool
	fresh   int
}

// newChurn reserves the samplers and the mobile members; mobile <= 0
// makes every non-sampler standing member mobile. The deployment's seed
// picks the mobile members and the order they move in.
func newChurn(d *deployment, t *tally, mobile int) *churn {
	c := &churn{d: d, t: t, moving: make(map[string]bool)}
	rng := rand.New(rand.NewSource(d.seed))
	for _, ids := range d.byArea() {
		n := len(ids) - 1
		if mobile > 0 && mobile < n {
			n = mobile
		}
		c.sampler = append(c.sampler, ids[0])
		rest := append([]string(nil), ids[1:]...)
		rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		c.pool = append(c.pool, rest[:n])
		for _, id := range rest[:n] {
			c.moving[id] = true
		}
	}
	return c
}

// steady returns the members the churn never moves.
func (c *churn) steady() cohort {
	out := cohort{}
	for _, ids := range c.d.byArea() {
		for _, id := range ids {
			if !c.moving[id] && !c.isFresh(id) {
				out[id] = true
			}
		}
	}
	return out
}

func (c *churn) isFresh(id string) bool { return len(id) > 0 && id[0] == 'f' }

// run cycles worker w until stop closes. Successive cycles start from
// successive areas, so members flow around the areas and no pool drains.
func (c *churn) run(w int, stop <-chan struct{}) {
	areas := len(c.pool)
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		src := (w + k) % areas
		if err := c.cycle(w, src, (src+1)%areas); err != nil {
			return
		}
	}
}

// cycle performs one leave / rejoin / join / retire round: four
// membership operations, each timed and checked.
func (c *churn) cycle(w, src, dst int) error {
	c.mu.Lock()
	if len(c.pool[src]) == 0 {
		c.mu.Unlock()
		return errors.New("no standing member left to move")
	}
	id := c.pool[src][0]
	c.pool[src] = c.pool[src][1:]
	c.fresh++
	freshID := fmt.Sprintf("f%d-%05d", w, c.fresh)
	c.mu.Unlock()

	m := c.d.member(id)
	if err := c.leave(id, src); err != nil {
		return err
	}
	c.d.unplace(id)

	c.t.attempt(1)
	start := time.Now()
	if err := m.Rejoin(core.ACID(dst)); err != nil {
		c.t.fail("rejoin returned an error", err)
		return err
	}
	c.t.add(&c.t.rejoin, ms(time.Since(start)))
	c.d.rejoins.Add(1)
	c.d.place(id, m)
	c.mu.Lock()
	c.pool[dst] = append(c.pool[dst], id)
	c.mu.Unlock()

	c.t.attempt(1)
	_, took, err := c.d.join(freshID)
	if err != nil {
		c.t.fail("join returned an error", err)
		return err
	}
	c.t.add(&c.t.join, ms(took))
	area := c.d.areaOf(freshID)
	if err := c.leave(freshID, area); err != nil {
		return err
	}
	c.d.retire(freshID)
	c.t.mu.Lock()
	c.t.ops += 4
	c.t.mu.Unlock()
	return nil
}

// leave sends member id's LeaveNotice and times the rekey it causes:
// until the area's controller has dropped the member and the area's
// sampler holds the epoch the controller reached by then.
func (c *churn) leave(id string, area int) error {
	ctrl := c.d.g.Controller(area)
	sampler := c.d.member(c.sampler[area])
	c.t.attempt(1)
	start := time.Now()
	if err := c.d.member(id).Leave(); err != nil {
		c.t.fail("leave returned an error", err)
		return err
	}
	c.d.leaves.Add(1)
	var epoch uint64
	err := waitFor("the controller to process a leave", func() bool {
		c.d.lt.tick()
		if ctrl.HasMember(id) {
			return false
		}
		epoch = ctrl.Epoch()
		return true
	})
	flushed := time.Now()
	if err == nil {
		err = waitFor("the rekey after a leave", func() bool {
			c.d.lt.tick()
			return sampler.Epoch() >= epoch
		})
	}
	if err != nil {
		c.t.fail("co-area member never reached the new epoch", err)
		return err
	}
	done := time.Now()
	c.t.add(&c.t.rekey, ms(done.Sub(start)))
	c.d.lt.leaveLegs(start, flushed, done)
	return nil
}

// churnFor runs workers churn workers for dur and records the window.
func churnFor(c *churn, workers int, dur time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.run(w, stop)
		}(w)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	c.t.mu.Lock()
	c.t.opsWindow += time.Since(start)
	c.t.mu.Unlock()
}

// ---- Multicast ----

// everyone returns every placed member as a cohort.
func everyone(d *deployment) cohort {
	all := cohort{}
	for _, ids := range d.byArea() {
		for _, id := range ids {
			all[id] = true
		}
	}
	return all
}

// without returns the cohort minus one member (a sender never receives
// its own payload).
func (co cohort) without(id string) cohort {
	out := make(cohort, len(co))
	for k := range co {
		if k != id {
			out[k] = true
		}
	}
	return out
}

// senders picks one member of the cohort per area, in area order.
func senders(d *deployment, from cohort) []string {
	var out []string
	for _, ids := range d.byArea() {
		for _, id := range ids {
			if from[id] {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// cohorts maps each sender to the receivers its payloads must reach.
type cohorts map[string]cohort

// toAll makes every sender's cohort the whole of expect but itself.
func toAll(from []string, expect cohort) cohorts {
	out := make(cohorts, len(from))
	for _, s := range from {
		out[s] = expect.without(s)
	}
	return out
}

// openLoop sends size-byte payloads at a fixed rate for dur, round-robin
// over the senders, each timed from its due time. It stops early when
// stop closes.
func openLoop(d *deployment, t *tally, from []string, to cohorts, size int, rate float64, dur time.Duration, stop <-chan struct{}) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			return
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		s := from[i%len(from)]
		t.add(&t.lateness, ms(time.Since(due)))
		d.lt.tick()
		_, b := d.dp.prepare(size, d.areaOf(s), due, true, to[s])
		t.attempt(1)
		if err := d.member(s).Send(b); err != nil {
			t.fail("send returned an error", err)
		}
	}
}

// closedLoop runs workers senders, each keeping window payloads in
// flight, for dur, and returns the deliveries to the cohort per second
// over the window and its drain. A payload counts once its whole cohort
// has it.
func closedLoop(d *deployment, t *tally, from []string, expect cohort, size, workers, window int, dur time.Duration) float64 {
	var (
		wg        sync.WaitGroup
		delivered atomic.Int64
	)
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < workers; w++ {
		s := from[w%len(from)]
		co := expect.without(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inflight []*payload
			for {
				open := time.Now().Before(end)
				if !open && len(inflight) == 0 {
					return
				}
				d.lt.tick()
				if open && len(inflight) < window {
					p, b := d.dp.prepare(size, d.areaOf(s), time.Now(), false, co)
					t.attempt(1)
					if err := d.member(s).Send(b); err != nil {
						t.fail("send returned an error", err)
						return
					}
					inflight = append(inflight, p)
					continue
				}
				p := inflight[0]
				inflight = inflight[1:]
				select {
				case <-p.done:
					delivered.Add(int64(len(co)))
				case <-time.After(opTimeout):
					t.fail("closed-loop payload never reached its cohort", nil)
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(delivered.Load()) / time.Since(start).Seconds()
}

// fillFrom takes from p, the completion rounds' tally, the failover
// samples and layer rows t has none of, and adds p's operation counts
// and failures.
func (t *tally) fillFrom(p *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	t.failover = append(t.failover, p.failover...)
	t.layer.merge(&p.layer)
	t.attempted += p.attempted
	t.failed += p.failed
	t.breaches = append(t.breaches, p.breaches...)
}

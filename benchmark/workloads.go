package main

import (
	"time"
)

// Payload sizes: the small control-sized payload and the bulk one.
const (
	smallPayload = 64
	bulkPayload  = 16 << 10
)

// window is how many payloads each closed-loop worker keeps in flight.
// The failover rounds use a window of one from a single worker: a
// saturating load starves the controller loop that also sends the 20 ms
// replica heartbeats, and the replicas then take over a live primary.
const window = 8

// opTimeout bounds any single wait on the system under test; hitting it
// is a failed operation, never a hang.
const opTimeout = 10 * time.Second

// Deployment shapes.
var (
	// churnShape: the paper's RSA-2048 keys over two large areas with
	// batching off, so every membership event pays its own signed
	// KeyUpdate that every co-area member verifies.
	churnShape = shape{
		areas: 2, perArea: 150, rsaBits: 2048,
	}
	// multicastShape: four areas in a fanout-2 controller tree, so a
	// payload is resealed across one to three area boundaries.
	multicastShape = shape{
		areas: 4, perArea: 32, rsaBits: 2048,
	}
	// failoverShape: three journaled replicas per area, batched rekeys,
	// 20 ms heartbeats. Every heartbeat is RSA-signed on the controller
	// loop; at 2048 bits that signing alone kept two cores so busy that
	// replicas took over live primaries, so these groups use 1024-bit
	// keys, the repository's default.
	failoverShape = shape{
		areas: 2, perArea: 24, rsaBits: 1024,
		batching: true, replicas: 3, journal: true,
	}
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(cfg runConfig, t *tally) error
}

var workloads = []workload{
	{"churn", runChurn},
	{"multicast", runMulticast},
	{"failover", runFailover},
}

// Open-loop payload rates. The multicast stream runs at about half the
// closed-loop 64 B saturation rate of its shape on a 2-core host (about
// 800 payloads/s); the churn stream, whose payloads each reach 299
// members, and the failover stream stay well below saturation of theirs.
const (
	multicastRate = 350
	churnRate     = 100
	failoverRate  = 100
)

// setUps stands a shape up n times, recording each set-up time, and
// keeps the last deployment running.
func setUps(cfg runConfig, sh shape, n int, t *tally) (*deployment, error) {
	var d *deployment
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = standUp(sh, cfg.seed, cfg.traced, runDir(cfg.scratch, 100+i), cfg.workers); err != nil {
			t.fail("set-up", err)
			return nil, err
		}
		t.add(&t.setups, d.setup.Seconds())
		logf("set-up %d: %.2fs", i, d.setup.Seconds())
	}
	t.heapMB = heapMB()
	return d, nil
}

// data runs the open-loop stream for open, then the closed-loop window
// for closed per payload size, over every placed member, and checks every
// delivery.
func data(d *deployment, cfg runConfig, t *tally, rate float64, open, closed time.Duration) {
	all := everyone(d)
	from := senders(d, all)
	first := d.dp.count()
	openLoop(d, t, from, toAll(from, all), smallPayload, rate, open, nil)
	bulk(d, t, from, all, cfg.workers, window, closed)
	d.checkData(t, first, nil)
	t.mu.Lock()
	t.mcast = append(t.mcast, d.dp.latencies(nil)...)
	t.mu.Unlock()
}

// completion runs failover rounds after a workload's own phases, on
// their own small groups. They supply failover_p50_ms, the one metric
// churn and multicast have no phase for, and the journal and replica
// rows of the traced run; nothing the workload measured is replaced.
func completion(cfg runConfig, t *tally) error {
	pt := &tally{}
	plan := roundPlan{load: 500 * time.Millisecond, bulk: 100 * time.Millisecond, after: 150 * time.Millisecond, rate: failoverRate}
	var err error
	for i := 0; i < completionRounds && err == nil; i++ {
		err = failoverRound(cfg, pt, 200+i, plan)
	}
	t.fillFrom(pt)
	return err
}

// completionRounds is how many failover rounds complete a churn or
// multicast record.
const completionRounds = 5

// slices is how many times a churn or multicast run cycles through its
// phases. Each phase's share of the run is cut into this many slices,
// spread over the whole run, so every metric samples all of it: the
// interference of other guests on a shared host comes and goes within a
// run, and a bad stretch then moves a few slices of every metric instead
// of the whole of one.
const slices = 8

// runChurn: two workers cycle leave, ticket rejoin into the other area,
// fresh join and retire against two 150-member RSA-2048 areas, in slices
// alternating with the data path over the same group.
func runChurn(cfg runConfig, t *tally) error {
	d, err := setUps(cfg, churnShape, 2, t)
	if err != nil {
		return err
	}
	lt := cfg.layers(d)
	c := newChurn(d, t, 0)
	per := cfg.seconds / slices
	for i := 0; i < slices; i++ {
		churnFor(c, cfg.workers, per*3/5)
		d.checkEpochs(t)
		data(d, cfg, t, churnRate, per/10, per*3/20)
	}
	d.checkDrops(t, false)
	lt.stop(t)
	d.close()
	return completion(cfg, t)
}

// runMulticast: stable membership over four areas while the data path
// runs — an open-loop 64 B stream timed from due times, then closed-loop
// 64 B and 16 KiB windows — in slices alternating with short membership
// phases on the same group. Each membership phase ends once every member
// holds its area's new epoch, so no rekey work overlaps the data path.
func runMulticast(cfg runConfig, t *tally) error {
	d, err := setUps(cfg, multicastShape, 3, t)
	if err != nil {
		return err
	}
	lt := cfg.layers(d)
	c := newChurn(d, t, 0)
	per := cfg.seconds / slices
	for i := 0; i < slices; i++ {
		data(d, cfg, t, multicastRate, per*2/5, per*3/20)
		churnFor(c, cfg.workers, per*3/10)
		d.checkEpochs(t)
	}
	d.checkDrops(t, false)
	lt.stop(t)
	d.close()
	return completion(cfg, t)
}

// runFailover: fresh replicated groups, one churner and the stream, and
// one crash of the area-0 primary per round.
func runFailover(cfg runConfig, t *tally) error {
	plan := roundPlan{load: 1500 * time.Millisecond, bulk: 250 * time.Millisecond, after: 300 * time.Millisecond, rate: failoverRate}
	rounds := int(cfg.seconds / (2 * time.Second))
	if rounds < 3 {
		rounds = 3
	}
	for i := 0; i < rounds; i++ {
		if err := failoverRound(cfg, t, i, plan); err != nil {
			return err
		}
	}
	return nil
}

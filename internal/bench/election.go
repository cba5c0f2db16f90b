package bench

//lint:file-ignore clockdiscipline benchmarks measure wall-clock elapsed time by design

import (
	"fmt"
	"sort"
	"time"

	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/obs"
	"mykil/internal/simnet"
)

// This file is E15: the price of self-healing fault tolerance, measured
// against the paper's single passive backup (§IV-C):
//
//   - Election latency. Kill the primary of a 3-replica set over many
//     rounds and time the gap from the crash to the quorum winner's
//     promotion. The paper's backup promotes unilaterally after its
//     silence window; the quorum election adds one Election/ElectionOK
//     round on top, so the figure shows what the split-brain protection
//     costs.
//
//   - Replication bytes. The journal-segment payload the primary ships
//     to its replicas for a fixed membership scenario
//     (mykil_replication_bytes_total).
type ElectionConfig struct {
	Rounds   int // crash/elect rounds for the latency distribution
	Members  int // members joined before the kill
	Churn    int // extra join+leave pairs that grow the journal
	Replicas int
	RSABits  int
	PoolSeed int64
}

// ElectionResult carries E15's measurements.
type ElectionResult struct {
	Cfg            ElectionConfig
	HeartbeatEvery time.Duration
	Latencies      []time.Duration // sorted, one per round
	SegmentBytes   int64
}

func (c *ElectionConfig) fill() {
	if c.Rounds == 0 {
		c.Rounds = 9
	}
	if c.Members == 0 {
		c.Members = 12
	}
	if c.Churn == 0 {
		c.Churn = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.RSABits == 0 {
		c.RSABits = 512
	}
	if c.PoolSeed == 0 {
		c.PoolSeed = 15
	}
}

// electionHeartbeat is the replica heartbeat cadence under test. The
// takeover window, and with it the latency floor, is a fixed multiple of
// it, so results are reported alongside this figure.
const electionHeartbeat = 20 * time.Millisecond

// percentile picks p (0..1) from sorted latencies by nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ElectionFailover runs E15 and returns its measurements.
func ElectionFailover(cfg ElectionConfig) (*ElectionResult, error) {
	cfg.fill()
	pool, err := crypt.NewKeyPool(16, cfg.RSABits, cfg.PoolSeed)
	if err != nil {
		return nil, err
	}
	res := &ElectionResult{Cfg: cfg, HeartbeatEvery: electionHeartbeat}

	if res.SegmentBytes, err = replicationBytes(cfg, pool); err != nil {
		return nil, fmt.Errorf("segment run: %w", err)
	}

	// Election latency: crash the primary once per round.
	for round := 0; round < cfg.Rounds; round++ {
		lat, err := electionRound(cfg, pool)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.Latencies = append(res.Latencies, lat)
	}
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	return res, nil
}

// electionOptions is the shared group shape: one area, quiet periodic
// timers (churn drives every sync), fast heartbeats.
func electionOptions(cfg ElectionConfig, pool *crypt.KeyPool) []core.Option {
	return []core.Option{
		core.WithAreas(1),
		core.WithReplicas(cfg.Replicas),
		core.WithRSABits(cfg.RSABits),
		core.WithTestKeyPool(pool),
		core.WithTIdle(60 * time.Millisecond),
		core.WithTActive(120 * time.Millisecond),
		core.WithRekeyInterval(time.Hour),
		core.WithHeartbeatEvery(electionHeartbeat),
		core.WithOpTimeout(time.Minute),
	}
}

// runChurn joins the configured members, then cycles Churn extra
// members through join+leave so the replicated history outgrows the
// final state.
func runChurn(g *core.Group, cfg ElectionConfig) error {
	for i := 0; i < cfg.Members; i++ {
		if _, err := g.AddMember(fmt.Sprintf("em%02d", i), core.MemberConfig{}); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Churn; i++ {
		m, err := g.AddMember(fmt.Sprintf("churn%02d", i), core.MemberConfig{})
		if err != nil {
			return err
		}
		if err := m.Leave(); err != nil {
			return err
		}
	}
	return nil
}

// waitReplicasSettled polls until every replica of area 0 reports the
// same applied journal LSN twice, a few heartbeats apart — all churn
// absorbed, no pulls in flight.
func waitReplicasSettled(g *core.Group, cfg ElectionConfig) error {
	deadline := time.Now().Add(30 * time.Second)
	var prev uint64
	stable := 0
	for time.Now().Before(deadline) {
		time.Sleep(5 * electionHeartbeat)
		pos, ok := replicaPosition(g, cfg)
		if ok && pos == prev && pos > 0 {
			if stable++; stable >= 2 {
				return nil
			}
		} else {
			stable = 0
		}
		prev = pos
	}
	return fmt.Errorf("replicas did not settle within 30s")
}

// replicaPosition reports the applied LSN area 0's replicas share, or
// ok=false while they disagree.
func replicaPosition(g *core.Group, cfg ElectionConfig) (uint64, bool) {
	pos := g.Replica(0, 0).AppliedLSN()
	for r := 1; r < cfg.Replicas; r++ {
		if g.Replica(0, r).AppliedLSN() != pos {
			return 0, false
		}
	}
	return pos, true
}

// replicationBytes runs the churn scenario and reports the payload bytes
// the primary shipped to its replicas.
func replicationBytes(cfg ElectionConfig, pool *crypt.KeyPool) (int64, error) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	g, err := core.New(append(electionOptions(cfg, pool), core.WithNet(net))...)
	if err != nil {
		return 0, err
	}
	defer g.Close()
	if err := runChurn(g, cfg); err != nil {
		return 0, err
	}
	if err := waitReplicasSettled(g, cfg); err != nil {
		return 0, err
	}
	return g.Controller(0).Stats().Value(obs.MetricReplBytes), nil
}

// electionRound stands up a group, lets the replicas absorb the churn,
// kills the primary, and times the quorum promotion.
func electionRound(cfg ElectionConfig, pool *crypt.KeyPool) (time.Duration, error) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	g, err := core.New(append(electionOptions(cfg, pool), core.WithNet(net))...)
	if err != nil {
		return 0, err
	}
	defer g.Close()
	if err := runChurn(g, cfg); err != nil {
		return 0, err
	}
	if err := waitReplicasSettled(g, cfg); err != nil {
		return 0, err
	}

	start := time.Now()
	net.Crash(core.ACAddr(0))
	deadline := start.Add(30 * time.Second)
	for {
		for r := 0; r < cfg.Replicas; r++ {
			if _, err := g.Replica(0, r).Promoted(); err == nil {
				return time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no replica promoted within 30s of the crash")
		}
		time.Sleep(time.Millisecond)
	}
}

// takeoverWindow is the silence a replica waits before campaigning:
// replica.DefaultTakeoverFactor heartbeats.
func (r *ElectionResult) takeoverWindow() time.Duration { return 5 * r.HeartbeatEvery }

// ElectionCheap reports whether the median quorum election finished
// within half a takeover window of the silence threshold: the
// split-brain protection costs little over the paper's unilateral
// promotion.
func (r *ElectionResult) ElectionCheap() bool {
	w := r.takeoverWindow()
	return len(r.Latencies) == r.Cfg.Rounds && percentile(r.Latencies, 0.50) <= w+w/2
}

// Table renders E15.
func (r *ElectionResult) Table() *Table {
	takeover := r.takeoverWindow()
	t := &Table{
		Title: fmt.Sprintf("E15 quorum failover (%d replicas, %d members + %d churned, %v heartbeat)",
			r.Cfg.Replicas, r.Cfg.Members, r.Cfg.Churn, r.HeartbeatEvery),
		Headers: []string{"measure", "value"},
		Notes: []string{
			fmt.Sprintf("takeover window %v = 5 heartbeats of silence before any candidacy", takeover),
			"latency = wall time from primary crash to quorum promotion",
			"bytes = journal-segment payload the primary shipped to its replicas",
		},
	}
	t.Rows = append(t.Rows,
		[]string{"election latency p50", percentile(r.Latencies, 0.50).Round(time.Millisecond).String()},
		[]string{"election latency p95", percentile(r.Latencies, 0.95).Round(time.Millisecond).String()},
		[]string{"election rounds", fmt.Sprint(len(r.Latencies))},
		[]string{"segment replication bytes", fmt.Sprint(r.SegmentBytes)},
	)
	return t
}

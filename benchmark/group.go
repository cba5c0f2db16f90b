package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/member"
	"mykil/internal/node"
	"mykil/internal/simnet"
	"mykil/internal/transport"
)

// shape is one deployment the benchmark stands up.
type shape struct {
	areas, perArea int
	rsaBits        int
	batching       bool // batched rekeys, flushed every batchEvery
	replicas       int  // per area, heartbeating every heartbeatEvery
	journal        bool // journal under the run directory, fsync=group
}

// Every shape builds a fanout-2 controller tree whose links carry 0.5 ms
// latency plus a seeded jitter.
const (
	areaFanout  = 2
	linkLatency = 500 * time.Microsecond
	linkJitter  = 50 * time.Microsecond
)

// The batched-rekey flush period and the replica heartbeat period.
const (
	batchEvery     = 20 * time.Millisecond
	heartbeatEvery = 20 * time.Millisecond
)

// poolKeys is the size of the deterministic key pool. Every principal
// draws a pool key round-robin; the pool only has to be large enough that
// the RSA work per operation matches distinct keys, which any size does.
const poolKeys = 4

// memberInbox bounds each member endpoint's mailbox. The closed-loop
// window caps the frames in flight to one member far below this. The
// simnet default (8192) would make every member's mailbox a 450 KB
// buffer the garbage collector scans on every cycle, which would swamp
// the heap and the collector's work that the benchmark reports.
const memberInbox = 256

// deployment is one running group plus the benchmark's handles on it.
type deployment struct {
	sh    shape
	g     *core.Group
	net   *simnet.Network
	pool  *crypt.KeyPool
	rec   *recorder // nil in the untraced run
	dp    *dataPlane
	dir   string
	seed  int64
	setup time.Duration

	lt *layerTracer // nil in the untraced run

	// Completed membership operations, for the per-operation layer rows.
	joins, rejoins, leaves atomic.Int64

	mu      sync.Mutex
	members map[string]*member.Member
	area    map[string]int // member ID -> area index at last placement
	trs     []transport.Transport
	joined  map[string]time.Time // traced run: when each Join() returned
}

// isController reports whether addr belongs to an area controller or a
// replica, which keep the default deep mailbox.
func isController(addr string) bool {
	return strings.HasPrefix(addr, "ac-") || strings.HasPrefix(addr, "backup-") || addr == core.RSAddr
}

// standUp builds a deployment and joins sh.perArea standing members into
// every area, using at most workers concurrent joiners. The returned set-up
// time covers key pool generation, group construction and the joins.
func standUp(sh shape, seed int64, traced bool, dir string, workers int) (*deployment, error) {
	start := time.Now()
	pool, err := crypt.NewKeyPool(poolKeys, sh.rsaBits, seed)
	if err != nil {
		return nil, err
	}
	net := simnet.New(simnet.Config{
		DefaultLatency: linkLatency,
		Jitter:         linkJitter,
		Seed:           seed,
		InboxCapacityFor: func(addr string) int {
			if isController(addr) {
				return 0
			}
			return memberInbox
		},
	})
	d := &deployment{
		sh:      sh,
		net:     net,
		pool:    pool,
		dp:      newDataPlane(seed, smallPayload, bulkPayload),
		dir:     dir,
		seed:    seed,
		members: make(map[string]*member.Member),
		area:    make(map[string]int),
		joined:  make(map[string]time.Time),
	}
	if traced {
		d.rec = newRecorder()
	}
	factory := func(name string) (transport.Transport, error) {
		tr, err := transport.NewSim(net, name)
		if err != nil {
			return nil, err
		}
		var t transport.Transport = tr
		if d.rec != nil {
			t = &tap{Transport: tr, rec: d.rec}
		}
		d.mu.Lock()
		d.trs = append(d.trs, t)
		d.mu.Unlock()
		return t, nil
	}
	opts := []core.Option{
		core.WithAreas(sh.areas),
		core.WithAreaFanout(areaFanout),
		core.WithRSABits(sh.rsaBits),
		core.WithTestKeyPool(pool),
		core.WithTransportFactory(factory),
		core.WithRekeyInterval(time.Hour),
		core.WithOpTimeout(20 * time.Second),
		// Quiet alive timers: the workloads drive every frame, and no
		// alive traffic blurs the measured ones.
		core.WithTIdle(time.Hour),
		core.WithTActive(time.Hour),
	}
	if sh.batching {
		opts = append(opts, core.WithBatching(), core.WithRekeyInterval(batchEvery))
	}
	if sh.replicas > 0 {
		opts = append(opts, core.WithReplicas(sh.replicas), core.WithHeartbeatEvery(heartbeatEvery))
	}
	if sh.journal {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			net.Close()
			return nil, err
		}
		opts = append(opts, core.WithJournal(dir, "group"))
	}
	g, err := core.New(opts...)
	if err != nil {
		net.Close()
		return nil, err
	}
	d.g = g
	if err := d.waitTree(); err != nil {
		d.close()
		return nil, err
	}
	ids := make([]string, 0, sh.areas*sh.perArea)
	for i := 0; i < sh.areas*sh.perArea; i++ {
		ids = append(ids, fmt.Sprintf("s%04d", i))
	}
	if err := d.joinAll(ids, workers); err != nil {
		d.close()
		return nil, err
	}
	d.setup = time.Since(start)
	return d, nil
}

// waitTree blocks until every non-root controller has attached to its
// parent, so set-up traffic cannot leak into the measured window.
func (d *deployment) waitTree() error {
	deadline := time.Now().Add(20 * time.Second)
	for i := 1; i < d.sh.areas; i++ {
		for d.g.Controller(i).ParentID() == "" {
			if time.Now().After(deadline) {
				return fmt.Errorf("area tree did not assemble")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// joinAll joins the given fresh members with at most workers concurrent
// joiners and records each one's area.
func (d *deployment) joinAll(ids []string, workers int) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(ids) || firstErr != nil {
					mu.Unlock()
					return
				}
				id := ids[next]
				next++
				mu.Unlock()
				if _, _, err := d.join(id); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// newMember creates (without joining) a member wired to the data plane.
func (d *deployment) newMember(id string) (*member.Member, error) {
	m, err := d.g.NewMember(id, core.MemberConfig{OnData: d.dp.receiver(id)})
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.members[id] = m
	d.mu.Unlock()
	return m, nil
}

// join creates a member, runs the seven-step join and reports its area
// and the Join() latency.
func (d *deployment) join(id string) (*member.Member, time.Duration, error) {
	m, err := d.newMember(id)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := m.Join(); err != nil {
		return nil, 0, fmt.Errorf("join %s: %w", id, err)
	}
	end := time.Now()
	d.joins.Add(1)
	if d.rec != nil {
		d.mu.Lock()
		d.joined[id] = end
		d.mu.Unlock()
	}
	d.place(id, m)
	return m, end.Sub(start), nil
}

// joinEnd reports when member id's Join() returned, in the traced run.
func (d *deployment) joinEnd(id string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.joined[id]
	return t, ok
}

// place records which area a member sits in now.
func (d *deployment) place(id string, m *member.Member) {
	var a int
	if _, err := fmt.Sscanf(m.AreaID(), "area-%d", &a); err != nil {
		a = -1
	}
	d.mu.Lock()
	d.area[id] = a
	d.mu.Unlock()
	d.dp.setArea(id, a)
}

// areaOf reports the area a member was last placed in.
func (d *deployment) areaOf(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.area[id]
}

// byArea returns the standing members of every area, sorted by ID.
func (d *deployment) byArea() [][]string {
	out := make([][]string, d.sh.areas)
	d.mu.Lock()
	for id, a := range d.area {
		if a >= 0 && a < len(out) {
			out[a] = append(out[a], id)
		}
	}
	d.mu.Unlock()
	for _, ids := range out {
		sort.Strings(ids)
	}
	return out
}

// member returns a member by ID.
func (d *deployment) member(id string) *member.Member {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members[id]
}

// retire removes a member that has left: its loop stops, and it leaves
// the area index. The transport stays open until the deployment closes,
// so frames already in flight to it land in a live mailbox instead of
// counting as network drops.
func (d *deployment) retire(id string) {
	d.mu.Lock()
	m := d.members[id]
	delete(d.members, id)
	delete(d.area, id)
	d.mu.Unlock()
	if m != nil {
		m.Close()
	}
}

// unplace drops a member from the area index while it is between areas.
func (d *deployment) unplace(id string) {
	d.mu.Lock()
	delete(d.area, id)
	d.mu.Unlock()
}

// drops sums the network's drop counters, split into drops at crashed
// destinations and every other kind.
func (d *deployment) drops() (crashed, other int64) {
	st := d.net.Stats()
	crashed = st.Value(simnet.StatDroppedCrashed)
	for _, name := range []string{
		simnet.StatDroppedPartition, simnet.StatDroppedRate,
		simnet.StatDroppedOverflow, simnet.StatDroppedClosed,
	} {
		other += st.Value(name)
	}
	return crashed, other
}

// nodeDrops sums the commands every node loop dropped after stopping,
// over the live members and the controllers.
func (d *deployment) nodeDrops() int64 {
	var n int64
	d.mu.Lock()
	for _, m := range d.members {
		n += m.Stats().Value(node.StatDrops)
	}
	d.mu.Unlock()
	for i := 0; i < d.sh.areas; i++ {
		n += d.g.Controller(i).Stats().Value(node.StatDrops)
	}
	return n + d.g.RS.Stats().Value(node.StatDrops)
}

// maxLaneDepth reads the deepest delivery-lane queue right now.
func (d *deployment) maxLaneDepth() int64 {
	var max int64
	for i := 0; i < d.net.NumShards(); i++ {
		if v := d.net.Stats().Value(fmt.Sprintf("sim.shard%02d.depth", i)); v > max {
			max = v
		}
	}
	return max
}

// close stops the group, its transports and the network, and removes the
// journal directory.
func (d *deployment) close() {
	if d.g != nil {
		d.g.Close()
	}
	d.mu.Lock()
	trs := d.trs
	d.trs = nil
	d.mu.Unlock()
	for _, tr := range trs {
		_ = tr.Close()
	}
	d.net.Close()
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// heapMB forces a collection and reports the in-use heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// runDir returns a fresh directory for one deployment's journals under
// the benchmark's scratch root.
func runDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("group-%02d", i))
}

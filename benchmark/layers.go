package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mykil/internal/area"
	"mykil/internal/core"
	"mykil/internal/crypt"
	"mykil/internal/journal"
	"mykil/internal/keytree"
	"mykil/internal/obs"
	"mykil/internal/simnet"
	"mykil/internal/transport"
	"mykil/internal/wire"
)

// The traced run: every component transport is wrapped in a tap, the
// client goroutines sample loop round trips, lane depths and replica lag
// as they go, and once the run ends the public functions of crypt, wire,
// keytree and journal are timed on the frames and records it captured.

// tickEvery spaces the samples the client goroutines take while tracing.
const tickEvery = 5 * time.Millisecond

// sendSample keeps one in this many timed transport sends.
const sendSample = 16

// sealedJoinKinds are the join frames whose bodies are sealed to the
// recipient's public key.
var sealedJoinKinds = []wire.Kind{
	wire.KindJoinRequest, wire.KindJoinChallenge, wire.KindJoinResponse,
	wire.KindJoinRefer, wire.KindJoinGrant, wire.KindJoinToAC, wire.KindJoinWelcome,
}

var joinKinds = []wire.Kind{
	wire.KindJoinRequest, wire.KindJoinChallenge, wire.KindJoinResponse, wire.KindJoinRefer,
	wire.KindJoinGrant, wire.KindJoinToAC, wire.KindJoinWelcome, wire.KindJoinDenied,
}

var rejoinKinds = []wire.Kind{
	wire.KindRejoinRequest, wire.KindRejoinChallenge, wire.KindRejoinResponse,
	wire.KindRejoinVerifyReq, wire.KindRejoinVerifyResp, wire.KindRejoinWelcome, wire.KindRejoinDenied,
}

// signed is a captured signed frame with the key that verifies it.
type signed struct {
	f   *wire.Frame
	pub crypt.PublicKey
}

// sealed is a captured sealed frame with the pool its recipient's key
// came from.
type sealed struct {
	f    *wire.Frame
	pool *crypt.KeyPool
}

// layerTally collects the traced run's per-layer samples across every
// deployment of the run.
type layerTally struct {
	mu sync.Mutex

	memberRTT, areaRTT          []float64 // µs
	flushLag, fanoutLag         []float64 // ms
	joinLeg, verifyLeg, rsLeg   []float64 // ms
	transit, sendUS             []float64 // µs
	election, retarget          []float64 // ms
	maxLane, maxPending, maxLag int64

	replBytes, crossLost, nodeDrops, simDrops int64

	joinFrames, joinBytes, joins int64
	rejoinFrames, rejoins        int64
	rekeyBytes, rekeys, ops      int64
	entries, acRekeys, acEvents  int64

	areaSize   int
	pool       *crypt.KeyPool
	keyUpdates []signed
	data, bulk []*wire.Frame
	sealed     []sealed
	records    [][]byte
	recBytes   int64
}

func (l *layerTally) merge(o *layerTally) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, f := range []struct{ dst, src *[]float64 }{
		{&l.memberRTT, &o.memberRTT}, {&l.areaRTT, &o.areaRTT},
		{&l.flushLag, &o.flushLag}, {&l.fanoutLag, &o.fanoutLag},
		{&l.joinLeg, &o.joinLeg}, {&l.verifyLeg, &o.verifyLeg}, {&l.rsLeg, &o.rsLeg},
		{&l.transit, &o.transit}, {&l.sendUS, &o.sendUS},
		{&l.election, &o.election}, {&l.retarget, &o.retarget},
	} {
		*f.dst = append(*f.dst, *f.src...)
	}
	for _, f := range []struct{ dst, src *int64 }{
		{&l.maxLane, &o.maxLane}, {&l.maxPending, &o.maxPending}, {&l.maxLag, &o.maxLag},
	} {
		if *f.src > *f.dst {
			*f.dst = *f.src
		}
	}
	for _, f := range []struct{ dst, src *int64 }{
		{&l.replBytes, &o.replBytes}, {&l.crossLost, &o.crossLost},
		{&l.nodeDrops, &o.nodeDrops}, {&l.simDrops, &o.simDrops},
		{&l.joinFrames, &o.joinFrames}, {&l.joinBytes, &o.joinBytes}, {&l.joins, &o.joins},
		{&l.rejoinFrames, &o.rejoinFrames}, {&l.rejoins, &o.rejoins},
		{&l.rekeyBytes, &o.rekeyBytes}, {&l.rekeys, &o.rekeys}, {&l.ops, &o.ops},
		{&l.entries, &o.entries}, {&l.acRekeys, &o.acRekeys}, {&l.acEvents, &o.acEvents},
		{&l.recBytes, &o.recBytes},
	} {
		*f.dst += *f.src
	}
	if l.areaSize == 0 {
		l.areaSize, l.pool = o.areaSize, o.pool
	}
	l.keyUpdates = appendCapped(l.keyUpdates, o.keyUpdates, capture)
	l.data = appendCapped(l.data, o.data, capture)
	l.bulk = appendCapped(l.bulk, o.bulk, capture)
	l.sealed = appendCapped(l.sealed, o.sealed, capture)
	l.records = appendCapped(l.records, o.records, journalRecords)
}

// journalRecords bounds the recovered records kept for the append timing.
const journalRecords = 512

// appendCapped appends src to dst up to n elements.
func appendCapped[T any](dst, src []T, n int) []T {
	for _, v := range src {
		if len(dst) >= n {
			break
		}
		dst = append(dst, v)
	}
	return dst
}

// layerTracer samples one deployment's layers during a traced run. It is
// nil in the untraced run, where every method is a no-op.
type layerTracer struct {
	d    *deployment
	lay  layerTally
	last atomic.Int64 // unix ns of the last tick

	probeTx, probeRx *simnet.Endpoint
	probeDone        sync.WaitGroup

	crashAt, promotedAt time.Time
}

// layers starts tracing a deployment when the run is traced.
func (cfg runConfig) layers(d *deployment) *layerTracer {
	if !cfg.traced {
		return nil
	}
	lt := &layerTracer{d: d}
	lt.lay.areaSize = d.sh.perArea
	lt.lay.pool = d.pool
	d.lt = lt
	var err error
	if lt.probeTx, err = d.net.Endpoint("probe-tx"); err == nil {
		lt.probeRx, err = d.net.Endpoint("probe-rx")
	}
	if err != nil {
		return lt
	}
	lt.probeDone.Add(1)
	go func() {
		defer lt.probeDone.Done()
		for {
			select {
			case env := <-lt.probeRx.Inbox():
				sent := int64(binary.LittleEndian.Uint64(env.Payload))
				beyond := time.Since(time.Unix(0, sent)) - linkLatency
				lt.lay.mu.Lock()
				lt.lay.transit = append(lt.lay.transit, float64(beyond)/float64(time.Microsecond))
				lt.lay.mu.Unlock()
			case <-lt.probeRx.Done():
				return
			}
		}
	}()
	return lt
}

// tick takes the periodic samples, at most once per tickEvery across all
// client goroutines.
func (lt *layerTracer) tick() {
	if lt == nil {
		return
	}
	now := time.Now().UnixNano()
	last := lt.last.Load()
	if now-last < int64(tickEvery) || !lt.last.CompareAndSwap(last, now) {
		return
	}
	d := lt.d
	lane := d.maxLaneDepth()
	pending := int64(transport.PendingFrames(d.net))
	var lag int64
	for a := 0; a < d.sh.areas && d.sh.replicas > 0; a++ {
		lo, hi := uint64(1<<63), uint64(0)
		for r := 0; r < d.sh.replicas; r++ {
			lsn := d.g.Replica(a, r).AppliedLSN()
			if lsn < lo {
				lo = lsn
			}
			if lsn > hi {
				hi = lsn
			}
		}
		if int64(hi-lo) > lag {
			lag = int64(hi - lo)
		}
	}
	if lt.probeTx != nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
		_ = lt.probeTx.Send("probe-rx", b[:])
	}
	// Loop round trips: a member's and a controller's public getters
	// each run one command on the node loop.
	var mRTT, aRTT float64
	if ids := d.byArea(); len(ids[len(ids)-1]) > 0 {
		m := d.member(ids[len(ids)-1][0])
		start := time.Now()
		_ = m.Epoch()
		mRTT = us(time.Since(start))
	}
	start := time.Now()
	_ = d.g.Controller(d.sh.areas - 1).Epoch()
	aRTT = us(time.Since(start))

	lt.lay.mu.Lock()
	defer lt.lay.mu.Unlock()
	lt.lay.maxLane = max(lt.lay.maxLane, lane)
	lt.lay.maxPending = max(lt.lay.maxPending, pending)
	lt.lay.maxLag = max(lt.lay.maxLag, lag)
	if mRTT > 0 {
		lt.lay.memberRTT = append(lt.lay.memberRTT, mRTT)
	}
	lt.lay.areaRTT = append(lt.lay.areaRTT, aRTT)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// leaveLegs records the two halves of one timed leave: notice sent to
// the controller dropping the member, and that to the sampler holding
// the new epoch.
func (lt *layerTracer) leaveLegs(sent, flushed, done time.Time) {
	if lt == nil {
		return
	}
	lt.lay.mu.Lock()
	lt.lay.flushLag = append(lt.lay.flushLag, ms(flushed.Sub(sent)))
	lt.lay.fanoutLag = append(lt.lay.fanoutLag, ms(done.Sub(flushed)))
	lt.lay.mu.Unlock()
}

// crashed notes when the primary was crashed.
func (lt *layerTracer) crashed(at time.Time) {
	if lt != nil {
		lt.crashAt = at
	}
}

// pollPromotion records when a replica of the crashed area first reports
// it has promoted itself.
func (lt *layerTracer) pollPromotion() {
	if lt == nil || !lt.promotedAt.IsZero() {
		return
	}
	for r := 0; r < lt.d.sh.replicas; r++ {
		if _, err := lt.d.g.Replica(crashArea, r).Promoted(); err == nil {
			lt.promotedAt = time.Now()
			return
		}
	}
}

// failedOver splits the failover into election and retarget.
func (lt *layerTracer) failedOver(back time.Time) {
	if lt == nil || lt.promotedAt.IsZero() {
		return
	}
	lt.lay.mu.Lock()
	lt.lay.election = append(lt.lay.election, ms(lt.promotedAt.Sub(lt.crashAt)))
	lt.lay.retarget = append(lt.lay.retarget, ms(back.Sub(lt.promotedAt)))
	lt.lay.mu.Unlock()
}

// crossAreaLost counts deliveries lost across the failed area's boundary.
func (lt *layerTracer) crossAreaLost(n int64) {
	if lt == nil {
		return
	}
	lt.lay.mu.Lock()
	lt.lay.crossLost += n
	lt.lay.mu.Unlock()
}

// stop collects the deployment's counters and captured frames into t,
// closes the group, and reads back the controllers' journals. It runs
// once the client goroutines are done; after the transit probe stops,
// nothing else touches lt.lay.
func (lt *layerTracer) stop(t *tally) {
	if lt == nil {
		return
	}
	if lt.probeRx != nil {
		lt.probeTx.Close()
		lt.probeRx.Close()
		lt.probeDone.Wait()
	}
	d := lt.d
	l := &lt.lay
	rec := d.rec

	l.nodeDrops = d.nodeDrops()
	_, l.simDrops = d.drops()
	l.joinFrames, l.joinBytes = rec.totals(joinKinds...)
	l.rejoinFrames, _ = rec.totals(rejoinKinds...)
	_, l.rekeyBytes = rec.totals(wire.KindKeyUpdate)
	var took []time.Duration
	l.rekeys, took = rec.rekeyCount()
	for _, x := range took {
		l.sendUS = append(l.sendUS, us(x))
	}
	l.joins, l.rejoins = d.joins.Load(), d.rejoins.Load()
	l.ops = l.joins + l.rejoins + d.leaves.Load()
	for a := 0; a < d.sh.areas; a++ {
		st := d.g.Controller(a).Stats()
		l.entries += st.Value(area.StatRekeyEntries)
		l.acRekeys += st.Value(area.StatRekeys)
		l.acEvents += st.Value(area.StatJoins) + st.Value(area.StatRejoins) + st.Value(area.StatLeaves)
		l.replBytes += st.Value(obs.MetricReplBytes)
	}
	pubs := map[string]crypt.PublicKey{}
	for _, e := range d.g.Directory() {
		if pub, err := crypt.ParsePublicKey(e.PubDER); err == nil {
			pubs[e.Addr] = pub
		}
	}
	for _, f := range rec.samples(wire.KindKeyUpdate) {
		if pub, ok := pubs[f.From]; ok {
			l.keyUpdates = append(l.keyUpdates, signed{f, pub})
		}
	}
	l.data = rec.samples(wire.KindData)
	l.bulk = rec.bulkSamples()
	for _, k := range sealedJoinKinds {
		for _, f := range rec.samples(k) {
			l.sealed = append(l.sealed, sealed{f, d.pool})
		}
	}
	l.legs(rec, d)

	d.g.Close()
	if d.sh.journal {
		l.readJournals(d)
	}
	t.layer.merge(l)
}

// legs pairs the tap's send events into the protocol legs.
func (l *layerTally) legs(rec *recorder, d *deployment) {
	// Registration server: step 1 (member -> RS) to step 5 (RS -> member).
	step1 := map[string]time.Time{}
	for _, e := range rec.eventsOf(wire.KindJoinRequest) {
		step1[e.from] = e.at
	}
	refers := rec.eventsOf(wire.KindJoinRefer)
	for _, g := range rec.eventsOf(wire.KindJoinGrant) {
		if s, ok := step1[g.to]; ok {
			l.rsLeg = append(l.rsLeg, ms(g.at.Sub(s)))
		}
		// The RS sends step 4 (to the controller) from the same handler
		// just before step 5: the latest refer before this grant.
		var step4 time.Time
		for _, r := range refers {
			if !r.at.After(g.at) {
				step4 = r.at
			}
		}
		if end, ok := d.joinEnd(g.to); ok && !step4.IsZero() {
			l.joinLeg = append(l.joinLeg, ms(end.Sub(step4)))
		}
	}
	// Rejoin steps 4-5: each request from A to B pairs, in order, with
	// the next response from B to A.
	pending := map[[2]string][]time.Time{}
	for _, e := range rec.eventsOf(wire.KindRejoinVerifyReq) {
		k := [2]string{e.from, e.to}
		pending[k] = append(pending[k], e.at)
	}
	resps := rec.eventsOf(wire.KindRejoinVerifyResp)
	sort.Slice(resps, func(i, j int) bool { return resps[i].at.Before(resps[j].at) })
	for _, e := range resps {
		k := [2]string{e.to, e.from}
		if q := pending[k]; len(q) > 0 {
			l.verifyLeg = append(l.verifyLeg, ms(e.at.Sub(q[0])))
			pending[k] = q[1:]
		}
	}
}

// readJournals recovers every controller journal the deployment wrote
// and keeps its records for the append timing.
func (l *layerTally) readJournals(d *deployment) {
	for a := 0; a < d.sh.areas; a++ {
		j, rec, err := journal.Open(journal.Options{Dir: filepath.Join(d.dir, core.ACID(a)), Fsync: journal.FsyncNever})
		if err != nil {
			continue
		}
		l.recBytes += int64(len(rec.Snapshot))
		for _, r := range rec.Records {
			l.recBytes += int64(len(r))
			if len(l.records) < journalRecords {
				l.records = append(l.records, r)
			}
		}
		_ = j.Close()
	}
}

// traced runs the workload untraced and then traced, reports the
// per-layer metrics with the tracing overhead on every end-to-end
// metric, and checks the tap first.
func traced(wl *workload, cfg runConfig, sp *spec) (result, map[string]any) {
	plain := &tally{}
	perr := wl.run(cfg, plain)
	base, _ := endToEnd(plain, sp, perr)

	cfg.traced = true
	t := &tally{}
	selfCheck(t, cfg.seed)
	err := wl.run(cfg, t)
	m := layerMetrics(t, cfg, sp)
	res, notes := endToEnd(t, sp, err)

	for name, v := range res.Metrics {
		m["overhead."+name] = metric{Value: v.Value - base.Metrics[name].Value, Unit: v.Unit}
	}
	if !base.Correct {
		res.Correct = false
		res.Failed += base.Failed
		notes["untraced_breaches"] = plain.breaches
	}
	res.Attempted += base.Attempted
	res.Metrics = m
	return res, notes
}

// layerMetrics turns the traced run's samples, and timings of the layer
// functions on the captured frames and records, into per-layer metrics.
// A row the run never measured (no samples, a zero denominator, or a
// layer whose inputs could not be rebuilt) fails the run under the name
// of that row: it would otherwise read as a 0 timing, a 100% gain.
func layerMetrics(t *tally, cfg runConfig, sp *spec) map[string]metric {
	l := &t.layer
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.fail(fmt.Sprintf("layer metric %s not measured", name), nil)
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	med := func(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }

	rsaLayer(l, put)
	suiteLayer(l, put)
	wireLayer(l, put)
	keytreeLayer(l, put)
	journalLayer(l, cfg, put)

	put("wire.frames_per_join", "count", ratio(l.joinFrames, l.joins))
	put("wire.bytes_per_join", "B", ratio(l.joinBytes, l.joins))
	put("wire.frames_per_rejoin", "count", ratio(l.rejoinFrames, l.rejoins))
	put("wire.bytes_per_rekey", "B", ratio(l.rekeyBytes, l.rekeys))
	put("keytree.entries_per_rekey", "count", ratio(l.entries, l.acRekeys))
	put("member.loop_rtt_us", "us", med(l.memberRTT))
	put("area.flush_lag_ms", "ms", med(l.flushLag))
	put("area.fanout_lag_ms", "ms", med(l.fanoutLag))
	put("area.join_leg_ms", "ms", med(l.joinLeg))
	put("area.verify_leg_ms", "ms", med(l.verifyLeg))
	put("area.loop_rtt_us", "us", med(l.areaRTT))
	put("area.rekeys_per_op", "count", ratio(l.rekeys, l.ops))
	put("area.crossarea_lost", "count", float64(l.crossLost))
	put("regserver.leg_ms", "ms", med(l.rsLeg))
	put("simnet.transit_us", "us", med(l.transit))
	put("simnet.max_lane_depth", "count", float64(l.maxLane))
	put("simnet.dropped", "count", float64(l.simDrops))
	put("transport.send_us", "us", med(l.sendUS))
	put("transport.pending_frames", "count", float64(l.maxPending))
	put("node.drops", "count", float64(l.nodeDrops))
	put("replica.election_ms", "ms", med(l.election))
	put("replica.retarget_ms", "ms", med(l.retarget))
	put("replica.repl_bytes", "B", float64(l.replBytes))
	put("replica.lag_records", "count", float64(l.maxLag))
	for _, e := range sp.PerLayer {
		if _, ok := m[e.Name]; !ok && !strings.HasPrefix(e.Name, "overhead.") {
			t.fail(fmt.Sprintf("layer metric %s not measured", e.Name), nil)
		}
	}
	return m
}

// timeEach runs fn over n rounds of items and returns the median time
// per call in the given unit.
func timeEach(n, items int, unit time.Duration, fn func(i int)) float64 {
	var xs []float64
	for r := 0; r < n; r++ {
		for i := 0; i < items; i++ {
			start := time.Now()
			fn(i)
			xs = append(xs, float64(time.Since(start))/float64(unit))
		}
	}
	return quantile(xs, 0.5)
}

// allocsPer reports heap allocations per call of fn.
func allocsPer(calls int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// rsaLayer times the RSA operations on captured frames.
func rsaLayer(l *layerTally, put func(string, string, float64)) {
	ku := l.keyUpdates
	put("crypt.rsa_verify_us", "us", timeEach(3, len(ku), time.Microsecond, func(i int) {
		_ = ku[i].pub.Verify(ku[i].f.Body, ku[i].f.Sig)
	}))
	signer := l.pool.At(0)
	put("crypt.rsa_sign_us", "us", timeEach(3, len(ku), time.Microsecond, func(i int) {
		_ = signer.Sign(ku[i].f.Body)
	}))
	// A sealed body decrypts only under its recipient's pool key: find it
	// once, then time Decrypt with it.
	type job struct {
		kp   *crypt.KeyPair
		blob []byte
	}
	var jobs []job
	for _, s := range l.sealed {
		for k := 0; k < s.pool.Size(); k++ {
			if _, err := s.pool.At(k).Decrypt(s.f.Body); err == nil {
				jobs = append(jobs, job{s.pool.At(k), s.f.Body})
				break
			}
		}
	}
	put("crypt.rsa_decrypt_us", "us", timeEach(2, len(jobs), time.Microsecond, func(i int) {
		_, _ = jobs[i].kp.Decrypt(jobs[i].blob)
	}))
}

// suiteLayer times the area suite's seal and open at the captured bulk
// Data payload sizes, in ns per KB of plaintext.
func suiteLayer(l *layerTally, put func(string, string, float64)) {
	suite, err := crypt.SuiteByName("")
	if err != nil {
		return
	}
	key := crypt.NewSymKey()
	var pts, blobs [][]byte
	for _, f := range l.bulk {
		var d wire.Data
		if wire.DecodePlain(f.Body, &d) != nil {
			continue
		}
		pt := make([]byte, len(d.Payload)-suite.Overhead())
		pts = append(pts, pt)
		blobs = append(blobs, suite.Seal(key, pt))
	}
	perKB := func(fn func(i int)) float64 {
		var xs []float64
		for r := 0; r < 3; r++ {
			for i := range pts {
				start := time.Now()
				fn(i)
				xs = append(xs, float64(time.Since(start))/(float64(len(pts[i]))/1024))
			}
		}
		return quantile(xs, 0.5)
	}
	put("crypt.suite_seal_ns_per_kb", "ns/KB", perKB(func(i int) { _ = suite.Seal(key, pts[i]) }))
	put("crypt.suite_open_ns_per_kb", "ns/KB", perKB(func(i int) { _, _ = suite.Open(key, blobs[i]) }))
}

// wireLayer times the codec on captured frames.
func wireLayer(l *layerTally, put func(string, string, float64)) {
	ku := l.keyUpdates
	decodeKU := func(i int) {
		var u wire.KeyUpdate
		_ = wire.DecodePlain(ku[i%len(ku)].f.Body, &u)
	}
	put("wire.decode_keyupdate_ns", "ns", timeEach(5, len(ku), time.Nanosecond, decodeKU))
	put("wire.decode_keyupdate_allocs", "count", allocsPer(10*len(ku), decodeKU))
	data := l.data
	decodeData := func(i int) {
		var d wire.Data
		_ = wire.DecodePlain(data[i%len(data)].Body, &d)
	}
	put("wire.decode_data_ns", "ns", timeEach(5, len(data), time.Nanosecond, decodeData))
	put("wire.decode_data_allocs", "count", allocsPer(10*len(data), decodeData))
	put("wire.encode_frame_ns", "ns", timeEach(5, len(data), time.Nanosecond, func(i int) { _, _ = data[i].Encode() }))
}

// keytreeLayer times rekey construction and the member's receive path on
// a tree of the run's area size, with the churn's single-event shapes or
// the batch size the controllers flushed.
func keytreeLayer(l *layerTally, put func(string, string, float64)) {
	suite, err := crypt.SuiteByName("")
	if err != nil {
		return
	}
	enc := keytree.NewSuiteEncryptor(suite)
	events := 1
	if l.acRekeys > 0 && l.acEvents > l.acRekeys {
		events = int(l.acEvents/l.acRekeys + 1)
	}
	const rounds = 64
	ids := make([]keytree.MemberID, l.areaSize)
	for i := range ids {
		ids[i] = keytree.MemberID(fmt.Sprintf("m%05d", i))
	}
	// Batch timing on a controller-configured tree.
	tree := keytree.New(keytree.Config{Encryptor: enc, ReuseUpdates: true})
	_ = tree.Preload(ids)
	next := len(ids)
	batch := func(tr *keytree.Tree) (*keytree.BatchResult, error) {
		var joins, leaves []keytree.MemberID
		for e := 0; e < events; e++ {
			joins = append(joins, keytree.MemberID(fmt.Sprintf("m%05d", next)))
			leaves = append(leaves, keytree.MemberID(fmt.Sprintf("m%05d", next-len(ids)+1)))
			next++
		}
		if events == 1 {
			// Single events alternate a join and a leave, as unbatched
			// churn does.
			if next%2 == 0 {
				return tr.Batch(nil, leaves)
			}
			return tr.Batch(joins, nil)
		}
		return tr.Batch(joins, leaves)
	}
	var xs []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, err := batch(tree); err != nil {
			break
		}
		xs = append(xs, us(time.Since(start)))
	}
	put("keytree.batch_us", "us", quantile(xs, 0.5))

	// Member receive path: verify, decode and apply each signed update.
	src := keytree.New(keytree.Config{Encryptor: enc})
	_ = src.Preload(ids)
	path, err := src.PathKeys(ids[0])
	if err != nil {
		return
	}
	next = len(ids)
	keep := ids[0]
	var updates []*keytree.KeyUpdate
	for len(updates) < rounds {
		res, err := batch(src)
		if err != nil {
			return
		}
		if res.Update != nil && src.HasMember(keep) {
			updates = append(updates, res.Update)
		}
	}
	signer := l.pool.At(0)
	pub := signer.Public()
	var bodies, sigs [][]byte
	for _, u := range updates {
		body, _ := wire.PlainBody(wire.KeyUpdate{AreaID: "area-0", Epoch: u.Epoch, Entries: u.Entries})
		bodies = append(bodies, body)
		sigs = append(sigs, signer.Sign(body))
	}
	base := src.Epoch() - uint64(len(updates))
	view := keytree.NewMemberView(path, base, enc)
	var applyNS, flushUS []float64
	for i := range updates {
		start := time.Now()
		if pub.Verify(bodies[i], sigs[i]) != nil {
			break
		}
		var u wire.KeyUpdate
		if wire.DecodePlain(bodies[i], &u) != nil {
			break
		}
		applyStart := time.Now()
		if _, err := view.Apply(&keytree.KeyUpdate{Epoch: u.Epoch, Entries: u.Entries}); err != nil {
			break
		}
		applyNS = append(applyNS, float64(time.Since(applyStart)))
		flushUS = append(flushUS, us(time.Since(start)))
	}
	put("keytree.apply_ns", "ns", quantile(applyNS, 0.5))
	put("member.flush_receive_us", "us", quantile(flushUS, 0.5))
	// Allocations of Apply alone, on a second view over the same updates.
	fresh := keytree.NewMemberView(path, base, enc)
	put("keytree.apply_allocs", "count", allocsPer(len(updates), func(i int) { _, _ = fresh.Apply(updates[i]) }))

	// Member data path: decode, open the data key under the area key, then
	// the payload, at the captured payload sizes.
	areaKey := crypt.NewSymKey()
	var frames [][]byte
	for _, f := range l.data {
		var d wire.Data
		if wire.DecodePlain(f.Body, &d) != nil {
			continue
		}
		dataKey := crypt.NewSymKey()
		d.EncKey = suite.Seal(areaKey, dataKey[:])
		d.Payload = crypt.Seal(dataKey, make([]byte, len(d.Payload)-crypt.SealOverhead))
		body, _ := wire.PlainBody(d)
		frames = append(frames, body)
	}
	put("member.data_receive_us", "us", timeEach(3, len(frames), time.Microsecond, func(i int) {
		var d wire.Data
		if wire.DecodePlain(frames[i], &d) != nil {
			return
		}
		raw, err := suite.Open(areaKey, d.EncKey)
		if err != nil {
			return
		}
		dk, err := crypt.SymKeyFromBytes(raw)
		if err != nil {
			return
		}
		_, _ = crypt.Open(dk, d.Payload)
	}))
}

// journalLayer replays the recovered controller records into a fresh
// group-commit journal from the run's client goroutines.
func journalLayer(l *layerTally, cfg runConfig, put func(string, string, float64)) {
	put("journal.bytes", "B", float64(l.recBytes))
	dir, err := os.MkdirTemp(cfg.scratch, "journal-*")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncGroup})
	if err != nil {
		return
	}
	var (
		mu   sync.Mutex
		xs   []float64
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(l.records) {
					return
				}
				start := time.Now()
				if _, err := j.Append(l.records[i]); err != nil {
					return
				}
				mu.Lock()
				xs = append(xs, us(time.Since(start)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	put("journal.append_us", "us", quantile(xs, 0.5))
	put("journal.records_per_sync", "count", float64(j.Appends())/float64(j.Syncs()))
	_ = j.Close()
}

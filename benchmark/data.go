package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// payloadHeader is the payload prefix carrying the payload's index; the
// rest of a payload is the seeded template of its size, so every
// delivery can be checked byte for byte without keeping what was sent.
const payloadHeader = 8

// cohort is the set of receivers a payload must reach exactly once.
type cohort map[string]bool

// payload is one multicast payload the benchmark sent.
type payload struct {
	due        time.Time
	size       int
	senderArea int
	timed      bool // latency is recorded for open-loop payloads only
	expect     cohort
	remaining  atomic.Int64
	done       chan struct{}
}

// receiver is one member's delivery ledger. Its OnData callback runs on
// the member's loop; the mutex orders it with the final check.
type receiver struct {
	mu   sync.Mutex
	id   string
	area atomic.Int64
	seen []uint64 // bitset over payload indices
	// lat holds the delivery latency of timed payloads, in ms, keyed by
	// the latency window the payload was due in.
	lat     []sample
	dups    int64
	corrupt atomic.Int64
}

// dataPlane sends seeded payloads through members and checks every
// delivery: each payload reaches its cohort exactly once and byte-identical.
type dataPlane struct {
	templates map[int][]byte

	mu       sync.RWMutex
	payloads []*payload
	recvs    map[string]*receiver

	// watch records the first delivery, to a member of watchArea, of a
	// payload from that area due at or after watchFrom (failover
	// detection).
	wmu       sync.Mutex
	watchArea int64
	watchFrom time.Time
	firstSeen time.Time
}

func newDataPlane(seed int64, sizes ...int) *dataPlane {
	rng := rand.New(rand.NewSource(seed ^ 0x6d796b696c))
	dp := &dataPlane{templates: make(map[int][]byte), recvs: make(map[string]*receiver)}
	for _, n := range sizes {
		b := make([]byte, n)
		rng.Read(b)
		dp.templates[n] = b
	}
	return dp
}

// receiver returns the OnData callback of member id.
func (dp *dataPlane) receiver(id string) func([]byte, string) {
	r := &receiver{id: id}
	r.area.Store(-1)
	dp.mu.Lock()
	dp.recvs[id] = r
	dp.mu.Unlock()
	return func(b []byte, _ string) { dp.deliver(r, b) }
}

// setArea records the area a receiver sits in.
func (dp *dataPlane) setArea(id string, area int) {
	dp.mu.RLock()
	r := dp.recvs[id]
	dp.mu.RUnlock()
	if r != nil {
		r.area.Store(int64(area))
	}
}

func (dp *dataPlane) deliver(r *receiver, b []byte) {
	at := time.Now()
	if len(b) < payloadHeader {
		r.corrupt.Add(1)
		return
	}
	idx := binary.LittleEndian.Uint64(b)
	dp.mu.RLock()
	var p *payload
	if idx < uint64(len(dp.payloads)) {
		p = dp.payloads[idx]
	}
	dp.mu.RUnlock()
	if p == nil || len(b) != p.size || !bytes.Equal(b[payloadHeader:], dp.templates[p.size][payloadHeader:]) {
		r.corrupt.Add(1)
		return
	}
	r.mu.Lock()
	w, bit := idx/64, uint64(1)<<(idx%64)
	for uint64(len(r.seen)) <= w {
		r.seen = append(r.seen, 0)
	}
	if r.seen[w]&bit != 0 {
		r.dups++
		r.mu.Unlock()
		return
	}
	r.seen[w] |= bit
	if p.timed {
		r.lat = append(r.lat, sample{p.due, float64(at.Sub(p.due)) / float64(time.Millisecond)})
	}
	r.mu.Unlock()
	if p.expect[r.id] && p.remaining.Add(-1) == 0 {
		close(p.done)
	}
	if a := r.area.Load(); int64(p.senderArea) == a {
		dp.wmu.Lock()
		if dp.watchArea == a && !dp.watchFrom.IsZero() && dp.firstSeen.IsZero() && !p.due.Before(dp.watchFrom) {
			dp.firstSeen = at
		}
		dp.wmu.Unlock()
	}
}

// prepare registers a payload and returns its bytes. The payload must be
// registered before it is sent, so a delivery always finds its record.
func (dp *dataPlane) prepare(size, senderArea int, due time.Time, timed bool, expect cohort) (*payload, []byte) {
	p := &payload{due: due, size: size, senderArea: senderArea, timed: timed, expect: expect, done: make(chan struct{})}
	p.remaining.Store(int64(len(expect)))
	if len(expect) == 0 {
		close(p.done)
	}
	dp.mu.Lock()
	idx := uint64(len(dp.payloads))
	dp.payloads = append(dp.payloads, p)
	dp.mu.Unlock()
	b := make([]byte, size)
	copy(b, dp.templates[size])
	binary.LittleEndian.PutUint64(b, idx)
	return p, b
}

// watch arms the failover detector for an area from t on and returns a
// function reporting the first matching delivery (zero until one happens).
func (dp *dataPlane) watch(area int, t time.Time) func() time.Time {
	dp.wmu.Lock()
	dp.watchArea, dp.watchFrom, dp.firstSeen = int64(area), t, time.Time{}
	dp.wmu.Unlock()
	return func() time.Time {
		dp.wmu.Lock()
		defer dp.wmu.Unlock()
		return dp.firstSeen
	}
}

// check verifies every payload registered at or after index from: each
// one not excused must have reached its whole cohort, and no receiver may
// have seen a duplicate or a corrupted payload. It returns the payloads
// still missing a cohort member and the duplicate and corrupt deliveries.
func (dp *dataPlane) check(from int, excused func(*payload) bool) (missing, dups, corrupt int64) {
	dp.mu.RLock()
	ps := dp.payloads[from:]
	rs := make([]*receiver, 0, len(dp.recvs))
	for _, r := range dp.recvs {
		rs = append(rs, r)
	}
	dp.mu.RUnlock()
	for _, p := range ps {
		if excused != nil && excused(p) {
			continue
		}
		if p.remaining.Load() != 0 {
			missing++
		}
	}
	for _, r := range rs {
		r.mu.Lock()
		dups += r.dups
		r.mu.Unlock()
		corrupt += r.corrupt.Load()
	}
	return missing, dups, corrupt
}

// latencyWindow is the span of due times whose deliveries form one
// latency window.
const latencyWindow = 500 * time.Millisecond

// sample is one delivery latency and its payload's due time.
type sample struct {
	due time.Time
	ms  float64
}

// latencies drains every receiver's recorded delivery latencies, grouped
// into windows by due time, in time order. Deliveries of payloads whose
// due time skip reports are dropped; skip may be nil.
func (dp *dataPlane) latencies(skip func(due time.Time) bool) [][]float64 {
	dp.mu.RLock()
	rs := make([]*receiver, 0, len(dp.recvs))
	for _, r := range dp.recvs {
		rs = append(rs, r)
	}
	dp.mu.RUnlock()
	byWin := map[int64][]float64{}
	for _, r := range rs {
		r.mu.Lock()
		for _, x := range r.lat {
			if skip == nil || !skip(x.due) {
				w := x.due.UnixNano() / int64(latencyWindow)
				byWin[w] = append(byWin[w], x.ms)
			}
		}
		r.lat = nil
		r.mu.Unlock()
	}
	wins := make([]int64, 0, len(byWin))
	for w := range byWin {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	out := make([][]float64, 0, len(wins))
	for _, w := range wins {
		out = append(out, byWin[w])
	}
	return out
}

// count reports how many payloads have been registered.
func (dp *dataPlane) count() int {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	return len(dp.payloads)
}

// missedAcross counts the deliveries that never happened from payloads
// registered at or after index from to receivers of expect sitting in a
// different area than the payload's sender.
func (dp *dataPlane) missedAcross(from int, expect cohort) int64 {
	dp.mu.RLock()
	defer dp.mu.RUnlock()
	var n int64
	for idx := from; idx < len(dp.payloads); idx++ {
		p := dp.payloads[idx]
		for id := range expect {
			r := dp.recvs[id]
			if r == nil || r.area.Load() == int64(p.senderArea) {
				continue
			}
			r.mu.Lock()
			w := idx / 64
			if w >= len(r.seen) || r.seen[w]&(1<<(uint(idx)%64)) == 0 {
				n++
			}
			r.mu.Unlock()
		}
	}
	return n
}

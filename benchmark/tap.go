package main

import (
	"encoding/binary"
	"sync"
	"time"

	"mykil/internal/transport"
	"mykil/internal/wire"
)

// tap wraps one component's transport so the traced run can count and
// time every frame the component sends. Receive is passed through
// untouched: each frame is sent exactly once, so counting at Send sees
// the protocol's whole traffic without adding a hop on the receive side.
type tap struct {
	transport.Transport
	rec *recorder
}

// Send times the inner Send (encode plus network hand-off) and records
// the frame.
func (t *tap) Send(to string, f *wire.Frame) error {
	start := time.Now()
	err := t.Transport.Send(to, f)
	t.rec.sent(t.Addr(), to, f, start, time.Since(start))
	return err
}

// capture bounds how many frame bodies of one kind the recorder keeps for
// the layer micro-timings; the timings replay these captured bodies.
const capture = 64

// sendEvent is one timestamped send the layer legs are derived from.
type sendEvent struct {
	at       time.Time
	from, to string
}

// recorder is the traced run's frame ledger: counts and bytes per kind,
// send times, and a bounded sample of bodies per kind.
type recorder struct {
	mu       sync.Mutex
	frames   map[wire.Kind]int64
	bytes    map[wire.Kind]int64
	sends    int64
	sendTime []time.Duration // one in sendSample sends
	captured map[wire.Kind][]*wire.Frame
	// bulk keeps Data frames of bulk payloads apart, so the small
	// payloads that dominate the count do not crowd them out.
	bulk []*wire.Frame
	// events keeps the sends of the kinds the layer legs pair up.
	events map[wire.Kind][]sendEvent
	// lastBody dedups a controller's KeyUpdate fan-out: one rekey is one
	// signed body sent to every co-area member.
	lastBody map[string]*byte
	rekeys   int64
}

func newRecorder() *recorder {
	return &recorder{
		frames:   make(map[wire.Kind]int64),
		bytes:    make(map[wire.Kind]int64),
		captured: make(map[wire.Kind][]*wire.Frame),
		events:   make(map[wire.Kind][]sendEvent),
		lastBody: make(map[string]*byte),
	}
}

// legKinds are the frame kinds whose send times the layer legs use.
var legKinds = map[wire.Kind]bool{
	wire.KindJoinRequest:      true,
	wire.KindJoinRefer:        true,
	wire.KindJoinGrant:        true,
	wire.KindLeaveNotice:      true,
	wire.KindKeyUpdate:        true,
	wire.KindRejoinVerifyReq:  true,
	wire.KindRejoinVerifyResp: true,
}

// frameSize is the encoded length of f, as Frame.Encode lays it out.
func frameSize(f *wire.Frame) int64 {
	n := 1 + len(f.From) + len(f.Body) + len(f.Sig)
	for _, l := range []int{len(f.From), len(f.Body), len(f.Sig)} {
		var b [binary.MaxVarintLen64]byte
		n += binary.PutUvarint(b[:], uint64(l))
	}
	return int64(n)
}

func (r *recorder) sent(from, to string, f *wire.Frame, at time.Time, took time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames[f.Kind]++
	r.bytes[f.Kind] += frameSize(f)
	if r.sends%sendSample == 0 {
		r.sendTime = append(r.sendTime, took)
	}
	r.sends++
	switch {
	case f.Kind == wire.KindData && len(f.Body) >= bulkPayload:
		if len(r.bulk) < capture {
			r.bulk = append(r.bulk, f)
		}
	case len(r.captured[f.Kind]) < capture:
		r.captured[f.Kind] = append(r.captured[f.Kind], f)
	}
	if f.Kind == wire.KindKeyUpdate && len(f.Body) > 0 {
		if r.lastBody[from] != &f.Body[0] {
			r.lastBody[from] = &f.Body[0]
			r.rekeys++
			r.events[f.Kind] = append(r.events[f.Kind], sendEvent{at: at, from: from, to: to})
		}
		return
	}
	if legKinds[f.Kind] {
		r.events[f.Kind] = append(r.events[f.Kind], sendEvent{at: at, from: from, to: to})
	}
}

// totals returns the frame and byte totals over the given kinds, or
// over every kind when none is given.
func (r *recorder) totals(kinds ...wire.Kind) (frames, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(kinds) == 0 {
		for k := range r.frames {
			frames += r.frames[k]
			bytes += r.bytes[k]
		}
		return frames, bytes
	}
	for _, k := range kinds {
		frames += r.frames[k]
		bytes += r.bytes[k]
	}
	return frames, bytes
}

// eventsOf returns a copy of the recorded send events of one kind.
func (r *recorder) eventsOf(k wire.Kind) []sendEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sendEvent(nil), r.events[k]...)
}

// rekeyCount returns the distinct rekeys sent and the timed sends.
func (r *recorder) rekeyCount() (int64, []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rekeys, append([]time.Duration(nil), r.sendTime...)
}

// samples returns the captured frames of one kind; Data frames of bulk
// payloads are kept apart (bulkSamples).
func (r *recorder) samples(k wire.Kind) []*wire.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*wire.Frame(nil), r.captured[k]...)
}

// bulkSamples returns the captured Data frames of bulk payloads.
func (r *recorder) bulkSamples() []*wire.Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*wire.Frame(nil), r.bulk...)
}

package stream

import (
	"sync"
	"sync/atomic"
)

// This file implements the snapshot broadcast bus: push-side delivery of
// the same immutable *Snapshot values that Snapshot() serves pull-side.
// Publication happens only at unit boundaries (never on the per-record
// path), and delivery to a subscriber is a non-blocking channel send with
// latest-wins semantics — a slow or wedged consumer loses old snapshots,
// never stalls ingest. Snapshot() remains the last-published accessor and
// is untouched by the bus: pull-side callers observe exactly the
// pre-bus behavior.

// defaultSubscribeBuffer is the per-subscriber channel capacity when the
// caller passes buf < 1 to Subscribe. One slot is the pure latest-wins
// subscription: the channel only ever holds the newest snapshot.
const defaultSubscribeBuffer = 1

// Subscription is one consumer's handle on an engine's snapshot bus. The
// channel returned by C is bounded: when the consumer falls behind, the
// publisher drops the oldest undelivered snapshot (counted on the bus) and
// enqueues the new one, so the consumer always converges on the latest
// unit and the publisher never blocks. Close unregisters the subscription;
// the channel is never closed, so a receive loop must select on its own
// context rather than waiting for channel close.
type Subscription struct {
	ch  chan *Snapshot
	bus *snapBus
	// coalesce marks a waiter for "something newer": see Coalesce.
	coalesce bool
}

// C returns the subscription's delivery channel. Snapshots arrive in unit
// order, but units may be skipped when the consumer is slower than the
// unit rate (latest-wins); each delivered value is a complete immutable
// Snapshot, unit-consistent like every published snapshot.
func (s *Subscription) C() <-chan *Snapshot { return s.ch }

// Coalesce declares that the consumer only waits for something newer than
// it has — a parked GET /v1/snapshot?wait= — so a snapshot replaced in its
// channel before it was received is no loss and is not counted as dropped.
// Call it right after Subscribe; it returns the subscription.
func (s *Subscription) Coalesce() *Subscription {
	s.bus.mu.Lock()
	s.coalesce = true
	s.bus.mu.Unlock()
	return s
}

// Close unregisters the subscription from the bus. Snapshots already
// buffered remain receivable; no further ones are delivered. Close is
// idempotent and safe to call concurrently with publication.
func (s *Subscription) Close() { s.bus.unsubscribe(s) }

// snapBus is the broadcast half of snapshot publication, embedded in the
// Engine. The subscriber list is mutex-guarded; publish runs only at unit
// boundaries so the lock is nowhere near the per-record path.
type snapBus struct {
	mu      sync.Mutex
	subs    []*Subscription
	dropped atomic.Int64
}

func (b *snapBus) subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = defaultSubscribeBuffer
	}
	sub := &Subscription{ch: make(chan *Snapshot, buf), bus: b}
	b.mu.Lock()
	b.subs = append(b.subs, sub)
	b.mu.Unlock()
	return sub
}

func (b *snapBus) unsubscribe(sub *Subscription) {
	b.mu.Lock()
	for i, s := range b.subs {
		if s == sub {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// publish delivers snap to every subscriber without ever blocking: a full
// channel sheds its oldest entry (counted) until the send lands. Only the
// publisher removes entries on the send path, so the loop terminates even
// while the consumer drains concurrently.
func (b *snapBus) publish(snap *Snapshot) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sub := range b.subs {
		for {
			select {
			case sub.ch <- snap:
			default:
				// Channel full: drop the oldest undelivered snapshot and
				// retry. The non-blocking receive can miss (the consumer
				// just drained), in which case the retry's send succeeds.
				select {
				case <-sub.ch:
					if !sub.coalesce {
						b.dropped.Add(1)
					}
				default:
				}
				continue
			}
			break
		}
	}
}

// droppedCount returns how many snapshots were shed to slow subscribers.
func (b *snapBus) droppedCount() int64 { return b.dropped.Load() }

// Subscribe registers a snapshot consumer with a bounded delivery channel
// of the given capacity (buf < 1 selects the 1-slot latest-wins default).
// Every snapshot the engine publishes (Config.PublishSnapshots) is offered
// to every subscriber; a subscriber that falls behind loses oldest-first
// and ingest never blocks on it. With PublishSnapshots off nothing is ever
// delivered. Subscribe is safe to call from any goroutine.
func (e *Engine) Subscribe(buf int) *Subscription { return e.bus.subscribe(buf) }

// BusDropped returns how many snapshots the bus shed to slow subscribers
// since the engine was built. Safe to call from any goroutine.
func (e *Engine) BusDropped() int64 { return e.bus.droppedCount() }

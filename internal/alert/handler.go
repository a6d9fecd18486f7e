package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cube"
)

// handlerQueueDepth bounds each handler's event queue. A wedged handler
// loses oldest events first (counted in Stats.HandlerDrops), so delivery
// never backs pressure into Observe, and Observe, which runs on the
// node's ingest loop, never waits on a handler.
const handlerQueueDepth = 64

// retryBase and retryCap bound the exponential backoff between delivery
// attempts: base, 2·base, 4·base, ... capped at retryCap; a failed
// delivery is retried maxRetries times.
const (
	retryBase  = 50 * time.Millisecond
	retryCap   = 2 * time.Second
	maxRetries = 3
)

// Handler delivers one event to a sink. Deliver runs on the handler's own
// goroutine, one event at a time, and may block; a returned error makes
// the manager retry with capped exponential backoff (maxRetries).
type Handler interface {
	Name() string
	Deliver(e Event) error
}

// runner is one handler's delivery loop: a bounded queue drained by a
// dedicated goroutine, with drop-oldest shedding on overflow.
type runner struct {
	h      Handler
	topics map[string]bool // nil = all topics
	q      chan Event
	mu     sync.Mutex // serializes offer's shed-and-retry with itself
	once   sync.Once
	m      *Manager

	retries atomic.Int64
	drops   atomic.Int64
}

// Handle attaches a handler, optionally restricted to the given topics
// (none = every topic), and starts its delivery goroutine. Attach all
// handlers before the first Observe.
func (m *Manager) Handle(h Handler, topics ...string) {
	r := &runner{h: h, q: make(chan Event, handlerQueueDepth), m: m}
	if len(topics) > 0 {
		r.topics = make(map[string]bool, len(topics))
		for _, t := range topics {
			r.topics[t] = true
		}
	}
	m.mu.Lock()
	m.handlers = append(m.handlers, r)
	m.mu.Unlock()
	m.wg.Add(1)
	go r.run()
}

// offer enqueues without blocking, shedding the oldest queued event when
// full. Offers are serialized by Observe (single caller) plus the mutex,
// so only the consumer races the shed-retry loop, and it terminates.
func (r *runner) offer(ev Event) {
	if r.topics != nil && !r.topics[ev.Topic] {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		select {
		case r.q <- ev:
			return
		default:
			select {
			case <-r.q:
				r.drops.Add(1)
			default:
			}
		}
	}
}

// close stops the runner after the queue drains; offers after close are
// lost (the manager stops observing first).
func (r *runner) close() { r.once.Do(func() { close(r.q) }) }

// run drains the queue, retrying failed deliveries with exponential
// backoff. Retries are counted for /metrics; an event that exhausts its
// attempts is abandoned (the ring buffer still has it).
func (r *runner) run() {
	defer r.m.wg.Done()
	for ev := range r.q {
		backoff := retryBase
		for attempt := 0; ; attempt++ {
			err := r.h.Deliver(ev)
			if err == nil || attempt >= maxRetries {
				break
			}
			r.retries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > retryCap {
				backoff = retryCap
			}
		}
	}
}

// LogHandler writes one line per event, in a stable grep-able form:
//
//	ALERTEVENT seq=3 unit=7 topic=olayer cell=(store-2, city-1) crit->warn slope=+1.250
type LogHandler struct {
	Schema *cube.Schema
	W      io.Writer
	mu     sync.Mutex
}

// Name identifies the handler in diagnostics.
func (h *LogHandler) Name() string { return "log" }

// Deliver writes the event line; it never asks for a retry.
func (h *LogHandler) Deliver(e Event) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(h.W, "ALERTEVENT seq=%d unit=%d topic=%s cell=%s %s->%s slope=%+.3f\n",
		e.Seq, e.Unit, e.Topic, e.Cell.Describe(h.Schema), e.From, e.To, e.Slope)
	return nil
}

// WebhookHandler POSTs each event as an EventJSON body to a fixed URL.
// Non-2xx responses and transport errors are delivery failures, retried
// by the runner's backoff loop.
type WebhookHandler struct {
	Schema *cube.Schema
	URL    string
	// Client defaults to a 5-second-timeout client, so one dead endpoint
	// occupies the delivery goroutine a bounded time per attempt.
	Client *http.Client
}

// Name identifies the handler in diagnostics.
func (h *WebhookHandler) Name() string { return "webhook" }

// Deliver POSTs the event and treats any non-2xx status as failure.
func (h *WebhookHandler) Deliver(e Event) error {
	body, err := json.Marshal(e.JSON(h.Schema))
	if err != nil {
		return err
	}
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := client.Post(h.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("webhook %s: status %s", h.URL, resp.Status)
	}
	return nil
}

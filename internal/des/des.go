// Package des is a deterministic discrete-event virtual-time engine: a
// pooled event arena threaded into a calendar queue, a virtual clock read
// with Now(), and cancellable generation-checked event handles.
// Simulations built on it advance time by popping events instead of
// sleeping, so a model that would take minutes of wall-clock pacing under
// internal/fleet's TimeScale runs in however long its event handlers take —
// cluster-scale fleets (des.Fleet) simulate 100k replicas under
// ten-million-request traces in seconds.
//
// Hot path: events live in a free-list-reused arena of 64-byte slots (no
// per-event heap allocation), and the queue is a calendar (Brown, CACM
// 1988) whose buckets are lists threaded through the arena slots
// themselves, so a schedule, a pop and a cancel each touch a bucket head
// and a few slots: expected O(1), independent of how many events are
// pending. Every event is typed: ScheduleEvent/AtEvent file a kind and
// three payload words, and Step hands them to the one installed Handler,
// so the loop schedules no closures.
//
// Determinism: the engine has no hidden randomness and no wall-clock
// dependence. Events at equal virtual times fire in FIFO schedule order
// (a strictly increasing sequence number breaks ties), and handlers run on
// the single goroutine driving Run/Step, so a simulation fed identical
// inputs and seeds replays an identical event sequence — des.Fleet asserts
// this with a byte-identical event log. The calendar's bucket widths only
// decide where an event is filed, never the order: each bucket is sorted
// by (time, sequence), and bucket numbers are monotone in time. Seeds for
// independent random streams are derived with chaos.SubSeed.
//
// Time is float64 virtual nanoseconds, matching the repo's timing
// convention (sim.PipelineResult, fleet accounting): identical inputs
// produce identical floating-point schedules, so float time keys do not
// weaken determinism.
package des

import "math"

// Handler receives typed events when they fire. i, x, and p are the payload
// words given at schedule time; the event's virtual timestamp is Now().
type Handler func(kind uint16, i int64, x float64, p any)

// Handle identifies one scheduled event. The zero Handle is invalid (never
// Active, Cancel is a no-op), and a Handle goes stale the moment its event
// fires or is cancelled: the arena slot's generation counter advances on
// every release, so a stale Handle can never cancel or observe a later
// event that happens to reuse the slot.
type Handle struct {
	slot int32 // arena index + 1; 0 = invalid
	gen  uint32
}

// event is one arena slot, 64 bytes: one cache line. Slots are reused
// through a free list; gen counts releases so stale handles are
// detectable. A pending event is also a node of its calendar bucket's
// list: (at, seq) is its ordering key, prev and next the neighbouring
// slots (-1 at either end).
type event struct {
	p    any
	x    float64
	i    int64
	at   float64
	seq  uint64
	prev int32
	next int32
	gen  uint32
	kind uint16
	live bool
}

// before orders events by (time, schedule sequence) — the FIFO tie-break
// that makes equal-time event order deterministic.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// bucket is one day of the calendar: the first and last slot of its list,
// which is sorted by (at, seq); -1 when the bucket is empty.
type bucket struct{ head, tail int32 }

const (
	// minBuckets is the calendar's smallest size (and its size when the
	// first event is scheduled).
	minBuckets = 2
	// lastDay is the day of every time too large for a bucket number,
	// +Inf included: those events share one bucket, still sorted exactly.
	lastDay = 1 << 62
	// widthSample is how many of the earliest distinct pending times set
	// the bucket width on a resize (Brown's ~25).
	widthSample = 25
)

// Engine is the event loop. The zero value is not usable; create with New.
// An Engine belongs to one goroutine: every call, reads included, must
// come from the goroutine driving Run/Step.
//
// The queue is a calendar: an event at time t is filed under day
// floor(t·(1/width)) in bucket day&mask, and each bucket's list is kept
// sorted. The cursor cur is a day no later than any pending event's, so
// the head of bucket cur&mask is the earliest pending event whenever its
// day is cur.
type Engine struct {
	arena    []event
	free     []int32
	buckets  []bucket // power-of-two length; nil until the first schedule
	mask     int64
	invWidth float64 // 1/width
	cur      int64
	scratch  []int32 // resize's gathered slots, kept between resizes
	// skipped counts the days pops have scanned past since the last
	// resize, which happened when events was resizedAt.
	skipped   int64
	resizedAt int64
	now       float64
	seq       uint64
	events    int64
	pending   int64
	halted    bool
	handler   Handler
}

// New returns an empty engine with the virtual clock at 0.
func New() *Engine { return &Engine{} }

// SetHandler installs the event dispatcher. Must be set before any event
// fires.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current virtual time in nanoseconds: the timestamp of the
// most recently fired event (0 before any fires).
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of events fired so far.
func (e *Engine) Events() int64 { return e.events }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return int(e.pending) }

// ScheduleEvent fires a typed event delayNS from Now, carrying the payload
// words (i, x, p) to the installed Handler. Non-positive or NaN delays
// clamp to zero — the event fires on the next Step, after events already
// queued at the current instant (FIFO tie order).
func (e *Engine) ScheduleEvent(delayNS float64, kind uint16, i int64, x float64, p any) Handle {
	if !(delayNS > 0) { // also catches NaN
		delayNS = 0
	}
	return e.AtEvent(e.now+delayNS, kind, i, x, p)
}

// AtEvent fires a typed event at virtual time atNS. Times in the past
// clamp to Now (virtual time never runs backwards); equal-time events fire
// in schedule order. Steady-state cost is zero allocations: the arena, the
// free list and the buckets retain their grown storage across events.
func (e *Engine) AtEvent(atNS float64, kind uint16, i int64, x float64, p any) Handle {
	if !(atNS >= e.now) { // also catches NaN
		atNS = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.p, ev.x, ev.i, ev.kind, ev.live = p, x, i, kind, true
	ev.at, ev.seq = atNS, e.seq
	e.seq++
	e.enqueue(idx)
	return Handle{slot: idx + 1, gen: ev.gen}
}

// release returns a slot to the free list, advancing its generation so
// every outstanding Handle for it goes stale.
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.live = false
	ev.p = nil // drop the reference for GC
	e.free = append(e.free, idx)
}

// Active reports whether the event behind h is still pending (not fired,
// not cancelled). The zero Handle is never active.
func (e *Engine) Active(h Handle) bool {
	if h.slot <= 0 || int(h.slot) > len(e.arena) {
		return false
	}
	ev := &e.arena[h.slot-1]
	return ev.live && ev.gen == h.gen
}

// Cancel removes a pending event. It returns false when the event already
// fired, was already cancelled, or h is the zero Handle. The event leaves
// its bucket's list at once (expected O(1): the list is doubly linked) and
// its arena slot is released for reuse.
func (e *Engine) Cancel(h Handle) bool {
	if !e.Active(h) {
		return false
	}
	e.dequeue(h.slot - 1)
	e.release(h.slot - 1)
	return true
}

// PeekAt returns the virtual time of the earliest pending event. ok is
// false when nothing is pending.
func (e *Engine) PeekAt() (at float64, ok bool) {
	if idx := e.first(); idx >= 0 {
		return e.arena[idx].at, true
	}
	return 0, false
}

// Step pops and fires the earliest event, advancing the virtual clock to
// its timestamp. It returns false when no events are pending.
func (e *Engine) Step() bool {
	idx := e.first()
	if idx < 0 {
		return false
	}
	e.dequeue(idx)
	ev := &e.arena[idx]
	kind, i, x, p := ev.kind, ev.i, ev.x, ev.p
	e.now = ev.at
	e.release(idx)
	e.events++
	e.handler(kind, i, x, p)
	return true
}

// Run fires events in virtual-time order until none are pending (or Halt
// is called from a handler) and returns the number fired by this call.
func (e *Engine) Run() int64 {
	e.halted = false
	start := e.events
	for !e.halted && e.Step() {
	}
	return e.events - start
}

// Halt stops the innermost Run after the current handler returns. Pending
// events stay scheduled; a subsequent Run resumes them.
func (e *Engine) Halt() { e.halted = true }

// day returns the calendar day of time t: floor(t·(1/width)), monotone
// in t, with huge and +Inf times clamped to lastDay.
func (e *Engine) day(t float64) int64 {
	if d := t * e.invWidth; d < lastDay {
		return int64(d)
	}
	return lastDay
}

// enqueue files a freshly scheduled slot, growing the calendar when it
// holds more than two events per bucket. The buckets are allocated on the
// first schedule, so building an engine costs nothing.
func (e *Engine) enqueue(idx int32) {
	if e.buckets == nil {
		e.invWidth = 1
		e.resize(minBuckets)
	}
	e.pending++
	// A schedule before the cursor (or into an empty calendar) moves it
	// back: PeekAt may have left it past Now.
	if d := e.day(e.arena[idx].at); e.pending == 1 || d < e.cur {
		e.cur = d
	}
	e.link(idx)
	if nb := len(e.buckets); e.pending > 2*int64(nb) {
		e.resize(2 * nb)
	}
}

// dequeue unlinks a pending slot, halving the calendar when it holds
// fewer than one event per two buckets. The slot itself is untouched.
func (e *Engine) dequeue(idx int32) {
	e.unlink(idx)
	e.pending--
	if nb := len(e.buckets); nb > minBuckets && e.pending < int64(nb/2) {
		e.resize(nb / 2)
	}
}

// link inserts slot idx into its bucket's sorted list, walking back from
// the tail: a new event usually sorts last, and an equal-time one always
// does (its sequence number is the largest).
func (e *Engine) link(idx int32) {
	ev := &e.arena[idx]
	b := &e.buckets[e.day(ev.at)&e.mask]
	p := b.tail
	for p >= 0 && before(ev, &e.arena[p]) {
		p = e.arena[p].prev
	}
	ev.prev = p
	if p >= 0 {
		ev.next = e.arena[p].next
		e.arena[p].next = idx
	} else {
		ev.next = b.head
		b.head = idx
	}
	if ev.next >= 0 {
		e.arena[ev.next].prev = idx
	} else {
		b.tail = idx
	}
}

// unlink removes slot idx from its bucket's list.
func (e *Engine) unlink(idx int32) {
	ev := &e.arena[idx]
	b := &e.buckets[e.day(ev.at)&e.mask]
	if ev.prev >= 0 {
		e.arena[ev.prev].next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next >= 0 {
		e.arena[ev.next].prev = ev.prev
	} else {
		b.tail = ev.prev
	}
}

// first returns the slot of the earliest pending event (-1 when none) and
// leaves the cursor on its day. When pops have skipped more than four
// days each on average since the last resize, the width no longer fits
// the pending times (they spread out with no change in their count), and
// it is re-estimated; the resize is paid for by the skips it ends.
func (e *Engine) first() int32 {
	if e.pending == 0 {
		return -1
	}
	h, skipped := e.scan()
	if skipped > 0 {
		e.skipped += skipped
		if e.skipped > 4*(int64(len(e.buckets))+e.events-e.resizedAt) {
			e.resize(len(e.buckets))
			h, _ = e.scan()
		}
	}
	return h
}

// scan moves the cursor to the earliest pending event's day, and returns
// its slot and the work spent on days without a due event. It scans
// forward from the cursor for a bucket whose head is due that day; when a
// whole lap finds none, the next event is more than a calendar year
// ahead, and the bucket heads are searched directly.
func (e *Engine) scan() (slot int32, skipped int64) {
	for k := range e.buckets {
		if h := e.buckets[e.cur&e.mask].head; h >= 0 && e.day(e.arena[h].at) == e.cur {
			return h, int64(k)
		}
		e.cur++
	}
	best := int32(-1)
	for _, b := range e.buckets {
		if b.head >= 0 && (best < 0 || before(&e.arena[b.head], &e.arena[best])) {
			best = b.head
		}
	}
	e.cur = e.day(e.arena[best].at)
	return best, 2 * int64(len(e.buckets))
}

// resize refiles every pending event into nb buckets, with the width set
// by Brown's rule from the earliest pending times. It allocates only when
// the calendar outgrows every earlier size.
func (e *Engine) resize(nb int) {
	all := e.scratch[:0]
	var smp sample
	for _, b := range e.buckets {
		for s := b.head; s >= 0; s = e.arena[s].next {
			all = append(all, s)
			smp.add(e.arena[s].at)
		}
	}
	if w := smp.width(); w > 0 && !math.IsInf(1/w, 0) {
		e.invWidth = 1 / w
	}
	if cap(e.buckets) >= nb {
		e.buckets = e.buckets[:nb]
	} else {
		e.buckets = make([]bucket, nb)
	}
	for i := range e.buckets {
		e.buckets[i] = bucket{-1, -1}
	}
	e.mask = int64(nb - 1)
	e.skipped, e.resizedAt = 0, e.events
	if len(all) > 0 {
		earliest := e.arena[all[0]].at
		for _, s := range all {
			earliest = math.Min(earliest, e.arena[s].at)
			e.link(s)
		}
		e.cur = e.day(earliest)
	}
	e.scratch = all[:0]
}

// sample holds the earliest distinct finite times seen, ascending, each
// with the number of events at it.
type sample struct {
	at    [widthSample]float64
	count [widthSample]int
	k     int
}

func (s *sample) add(t float64) {
	if math.IsInf(t, 0) || s.k == widthSample && t > s.at[s.k-1] {
		return
	}
	j := s.k
	for j > 0 && s.at[j-1] > t {
		j--
	}
	if j > 0 && s.at[j-1] == t {
		s.count[j-1]++
		return
	}
	if s.k < widthSample {
		s.k++
	}
	copy(s.at[j+1:s.k], s.at[j:s.k-1])
	copy(s.count[j+1:s.k], s.count[j:s.k-1])
	s.at[j], s.count[j] = t, 1
}

// width is Brown's bucket width: three times the mean separation of the
// sampled events, leaving out gaps more than twice the mean gap (a
// far-future outlier). Events tied at one time count as separations of
// zero, so a tie-heavy queue gets buckets narrower than its time grid.
// It returns 0 when fewer than two distinct times are known.
func (s *sample) width() float64 {
	if s.k < 2 {
		return 0
	}
	mean := (s.at[s.k-1] - s.at[0]) / float64(s.k-1)
	var span float64
	events := 0
	for i := 1; i < s.k; i++ {
		if d := s.at[i] - s.at[i-1]; d <= 2*mean {
			span += d
			events += s.count[i-1]
		}
	}
	return 3 * span / float64(events)
}

package des

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// recorder is an engine whose handler records the payload i and the fire
// time of every event, then runs then[i] when one is set: how a test
// schedules from inside a handler.
type recorder struct {
	*Engine
	ids  []int64
	ats  []float64
	then map[int64]func()
}

func newRecorder() *recorder {
	r := &recorder{Engine: New(), then: map[int64]func(){}}
	r.SetHandler(func(kind uint16, i int64, x float64, p any) {
		r.ids = append(r.ids, i)
		r.ats = append(r.ats, r.Now())
		if fn := r.then[i]; fn != nil {
			fn()
		}
	})
	return r
}

// firedAt returns when event id fired, or NaN when it has not.
func (r *recorder) firedAt(id int64) float64 {
	for k, i := range r.ids {
		if i == id {
			return r.ats[k]
		}
	}
	return math.NaN()
}

func TestEventOrdering(t *testing.T) {
	e := newRecorder()
	e.AtEvent(30, 1, 3, 0, nil)
	e.AtEvent(10, 1, 1, 0, nil)
	e.AtEvent(20, 1, 2, 0, nil)
	if n := e.Run(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if want := []int64{1, 2, 3}; !reflect.DeepEqual(e.ids, want) {
		t.Fatalf("fired %v, want %v", e.ids, want)
	}
	if e.Now() != 30 {
		t.Fatalf("Now %v after run, want 30", e.Now())
	}
}

// Equal-time events fire in schedule (FIFO) order, including events
// scheduled from inside a handler at the current instant.
func TestEqualTimeFIFO(t *testing.T) {
	e := newRecorder()
	for i := int64(0); i < 6; i++ {
		e.AtEvent(100, 1, i, 0, nil)
	}
	e.then[5] = func() { e.ScheduleEvent(0, 1, 99, 0, nil) }
	e.Run()
	if want := []int64{0, 1, 2, 3, 4, 5, 99}; !reflect.DeepEqual(e.ids, want) {
		t.Fatalf("fired %v, want %v", e.ids, want)
	}
}

func TestScheduleRelative(t *testing.T) {
	e := newRecorder()
	e.AtEvent(50, 1, 1, 0, nil)
	e.then[1] = func() { e.ScheduleEvent(25, 1, 2, 0, nil) }
	e.Run()
	if at := e.firedAt(2); at != 75 {
		t.Fatalf("relative event fired at %v, want 75", at)
	}
}

// Scheduling in the past, or at a NaN time or delay, clamps to Now:
// virtual time never runs backwards.
func TestPastSchedulesClamp(t *testing.T) {
	e := newRecorder()
	e.AtEvent(100, 1, 1, 0, nil)
	e.then[1] = func() {
		e.AtEvent(10, 1, 2, 0, nil)
		e.AtEvent(math.NaN(), 1, 3, 0, nil)
		e.ScheduleEvent(math.NaN(), 1, 4, 0, nil)
	}
	e.Run()
	for id := int64(2); id <= 4; id++ {
		if at := e.firedAt(id); at != 100 {
			t.Fatalf("event %d fired at %v, want clamp to 100", id, at)
		}
	}
	e2 := newRecorder()
	e2.ScheduleEvent(-5, 1, 1, 0, nil)
	e2.Run()
	if fired := len(e2.ids) == 1; !fired || e2.Now() != 0 {
		t.Fatalf("negative delay: fired=%t now=%v, want immediate at 0", fired, e2.Now())
	}
}

func TestCancel(t *testing.T) {
	e := newRecorder()
	tm := e.AtEvent(10, 1, 1, 0, nil)
	if !e.Active(tm) {
		t.Fatal("timer not active after schedule")
	}
	if !e.Cancel(tm) {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel(tm) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if len(e.ids) != 0 {
		t.Fatal("cancelled timer fired")
	}
	// Cancelling after firing reports false.
	tm2 := e.AtEvent(20, 1, 2, 0, nil)
	e.Run()
	if e.Active(tm2) || e.Cancel(tm2) {
		t.Fatal("fired timer still active / cancellable")
	}
	// The zero Handle is inert.
	var zero Handle
	if e.Active(zero) || e.Cancel(zero) {
		t.Fatal("zero Handle active / cancellable")
	}
}

// A stale handle must not resurrect or cancel a later event that reuses its
// arena slot — the generation check.
func TestStaleHandleCannotTouchReusedSlot(t *testing.T) {
	e := newRecorder()
	h1 := e.AtEvent(10, 1, 1, 0, nil)
	if !e.Cancel(h1) {
		t.Fatal("cancel failed")
	}
	h2 := e.AtEvent(20, 1, 2, 0, nil) // reuses h1's slot
	if e.Active(h1) {
		t.Fatal("stale handle reports active after slot reuse")
	}
	if e.Cancel(h1) {
		t.Fatal("stale handle cancelled the reused slot's event")
	}
	if !e.Active(h2) {
		t.Fatal("fresh handle inactive")
	}
	e.Run()
	if want := []int64{2}; !reflect.DeepEqual(e.ids, want) {
		t.Fatal("event on reused slot did not fire")
	}
}

// Cancelling an interior event must not disturb the firing order of the
// rest — unlinking an event from its bucket keeps each list sorted.
func TestCancelKeepsOrder(t *testing.T) {
	e := newRecorder()
	timers := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		timers = append(timers, e.AtEvent(float64(10-i), 1, int64(10-i), 0, nil))
	}
	e.Cancel(timers[3]) // event at time 7
	e.Cancel(timers[8]) // event at time 2
	e.Run()
	if want := []int64{1, 3, 4, 5, 6, 8, 9, 10}; !reflect.DeepEqual(e.ids, want) {
		t.Fatalf("fired %v, want %v", e.ids, want)
	}
}

func TestHalt(t *testing.T) {
	e := newRecorder()
	e.AtEvent(10, 1, 1, 0, nil)
	e.AtEvent(20, 1, 2, 0, nil)
	e.then[1] = e.Halt
	e.Run()
	if want := []int64{1}; !reflect.DeepEqual(e.ids, want) {
		t.Fatalf("fired %v before halt, want %v", e.ids, want)
	}
	// Resuming picks up the pending events.
	e.Run()
	if want := []int64{1, 2}; !reflect.DeepEqual(e.ids, want) {
		t.Fatalf("fired %v after resume, want %v", e.ids, want)
	}
	if e.Events() != 2 {
		t.Fatalf("Events %d, want 2", e.Events())
	}
}

// An open-loop chain (each event schedules its successor) keeps the queue
// tiny no matter how many events flow through.
func TestChainedEventsBoundedHeap(t *testing.T) {
	e := New()
	const n = 100000
	count := 0
	e.SetHandler(func(uint16, int64, float64, any) {
		count++
		if count < n {
			e.ScheduleEvent(1, 1, 0, 0, nil)
		}
		if p := e.Pending(); p > 1 {
			t.Fatalf("queue grew to %d entries on a chained workload", p)
		}
	})
	e.ScheduleEvent(1, 1, 0, 0, nil)
	e.Run()
	if count != n || e.Now() != float64(n) {
		t.Fatalf("ran %d events to t=%v, want %d to %d", count, e.Now(), n, n)
	}
}

// An arena slot is one 64-byte cache line on 64-bit builds.
func TestEventSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot size is pinned for 64-bit builds")
	}
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event slot is %d bytes, want 64", n)
	}
}

// The calendar doubles as events pile up and halves as they drain, the
// firing order survives every refile, and growing back to an earlier size
// reuses the buckets and scratch already allocated.
func TestCalendarGrowsAndShrinks(t *testing.T) {
	e := New()
	var got []int64
	e.SetHandler(func(kind uint16, i int64, x float64, p any) { got = append(got, i) })
	if e.buckets != nil {
		t.Fatal("buckets allocated before the first schedule")
	}
	const n = 4096
	at := func(i int) float64 { return float64(int64(i) * 2654435761 % n / 4) } // shuffled, 4-way ties
	for i := 0; i < n; i++ {
		e.AtEvent(at(i), 1, int64(i), 0, nil)
	}
	if len(e.buckets) < n/4 {
		t.Fatalf("%d buckets for %d events, want the calendar grown", len(e.buckets), n)
	}
	for i := 0; i < n-8; i++ {
		e.Step()
	}
	if len(e.buckets) > 16 {
		t.Fatalf("%d buckets for 8 events, want the calendar shrunk", len(e.buckets))
	}
	e.Run()
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	sort.Slice(want, func(a, b int) bool {
		ta, tb := at(int(want[a])), at(int(want[b]))
		return ta < tb || ta == tb && want[a] < want[b]
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("events fired out of (time, schedule) order across resizes")
	}
	e.SetHandler(func(uint16, int64, float64, any) {})
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < n; i++ {
			e.ScheduleEvent(at(i), 1, 0, 0, nil)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("regrowing the calendar allocates %.0f times", allocs)
	}
}

// A width that no longer fits the pending times is re-estimated even when
// the event count never crosses a resize threshold: here the queue holds
// 1000 events throughout, first 1 ns apart and then spread over 1 ms.
func TestCalendarRewidthsAfterShift(t *testing.T) {
	e := New()
	spread := 1000.0
	lcg := uint64(1)
	e.SetHandler(func(uint16, int64, float64, any) {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		e.ScheduleEvent(spread*float64(lcg>>11)/(1<<53), 1, 0, 0, nil)
	})
	for i := 0; i < 1000; i++ {
		e.ScheduleEvent(float64(i), 1, 0, 0, nil)
	}
	dense := 1 / e.invWidth
	spread = 1e6
	for i := 0; i < 5000; i++ {
		e.Step()
	}
	if e.Pending() != 1000 {
		t.Fatalf("%d pending, want 1000", e.Pending())
	}
	if sparse := 1 / e.invWidth; !(sparse > 100*dense) {
		t.Fatalf("bucket width %g ns after the shift, still %g ns from the dense phase", sparse, dense)
	}
}

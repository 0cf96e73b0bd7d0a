package des

import (
	"reflect"
	"sort"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("Now %v after run, want 30", e.Now())
	}
}

// Equal-time events fire in schedule (FIFO) order, including events
// scheduled from inside a handler at the current instant.
func TestEqualTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	e.At(100, func() { e.Schedule(0, func() { got = append(got, 99) }) })
	e.Run()
	if want := []int{0, 1, 2, 3, 4, 99}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestScheduleRelative(t *testing.T) {
	e := New()
	var at float64
	e.At(50, func() {
		e.Schedule(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 75 {
		t.Fatalf("relative event fired at %v, want 75", at)
	}
}

// Scheduling in the past clamps to Now: virtual time never runs backwards.
func TestPastSchedulesClamp(t *testing.T) {
	e := New()
	var at float64
	e.At(100, func() {
		e.At(10, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
	e2 := New()
	fired := false
	e2.Schedule(-5, func() { fired = true })
	e2.Run()
	if !fired || e2.Now() != 0 {
		t.Fatalf("negative delay: fired=%t now=%v, want immediate at 0", fired, e2.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(10, func() { fired = true })
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
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Cancelling after firing reports false.
	tm2 := e.At(20, func() {})
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
	e := New()
	h1 := e.At(10, func() {})
	if !e.Cancel(h1) {
		t.Fatal("cancel failed")
	}
	fired := false
	h2 := e.At(20, func() { fired = true }) // reuses h1's slot
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
	if !fired {
		t.Fatal("event on reused slot did not fire")
	}
}

// Cancelling an interior event must not disturb the firing order of the
// rest — unlinking an event from its bucket keeps each list sorted.
func TestCancelKeepsOrder(t *testing.T) {
	e := New()
	var got []int
	timers := make([]Handle, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers = append(timers, e.At(float64(10-i), func() { got = append(got, 10-i) }))
	}
	e.Cancel(timers[3]) // event at time 7
	e.Cancel(timers[8]) // event at time 2
	e.Run()
	if want := []int{1, 3, 4, 5, 6, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []int
	for _, at := range []float64{10, 20, 30, 40} {
		at := at
		e.At(at, func() { got = append(got, int(at)) })
	}
	if n := e.RunUntil(25); n != 2 {
		t.Fatalf("RunUntil fired %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now %v after RunUntil(25), want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d pending, want 2", e.Pending())
	}
	e.Run()
	if want := []int{10, 20, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

func TestHalt(t *testing.T) {
	e := New()
	var got []int
	e.At(10, func() { got = append(got, 1); e.Halt() })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if want := []int{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v before halt, want %v", got, want)
	}
	// Resuming picks up the pending events.
	e.Run()
	if want := []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v after resume, want %v", got, want)
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
	var next func()
	next = func() {
		count++
		if count < n {
			e.Schedule(1, next)
		}
		if p := e.Pending(); p > 1 {
			t.Fatalf("queue grew to %d entries on a chained workload", p)
		}
	}
	e.Schedule(1, next)
	e.Run()
	if count != n || e.Now() != float64(n) {
		t.Fatalf("ran %d events to t=%v, want %d to %d", count, e.Now(), n, n)
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
	at := func(i int) float64 { return float64(i * 2654435761 % n / 4) } // shuffled, 4-way ties
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

func TestSubSeed(t *testing.T) {
	a, b := SubSeed(7, "arrivals"), SubSeed(7, "dispatch")
	if a == b {
		t.Fatal("distinct stream names produced the same seed")
	}
	if a != SubSeed(7, "arrivals") {
		t.Fatal("SubSeed not stable")
	}
	if SubSeed(0, "") == 0 {
		t.Fatal("SubSeed produced the degenerate 0 seed")
	}
}

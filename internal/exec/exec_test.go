package exec

import (
	"sync"
	"testing"
	"time"

	"hybriddb/internal/sim"
)

func TestSimSchedDelegates(t *testing.T) {
	s := sim.New()
	sched := Sim(s)
	if sched.Simulator() != s {
		t.Fatal("Simulator() does not return the adapted simulator")
	}
	var ranAt float64 = -1
	sched.Schedule(1.5, func() { ranAt = sched.Now() })
	s.Run()
	if ranAt != 1.5 {
		t.Fatalf("scheduled action ran at %v, want 1.5", ranAt)
	}
	// The adapter is a cast, and the interface holds the simulator pointer.
	var iface Scheduler = sched
	if iface.Now() != s.Now() {
		t.Fatal("interface Now diverges from simulator clock")
	}
}

func TestLoopPostFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	var wg sync.WaitGroup
	wg.Add(1)
	for i := 0; i < 100; i++ {
		i := i
		l.Post(func() { order = append(order, i) })
	}
	l.Post(func() { wg.Done() })
	wg.Wait()
	l.Stop()
	for i, v := range order {
		if v != i {
			t.Fatalf("out-of-order execution at %d: %v", i, order)
		}
	}
}

func TestLoopPostFromLoop(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	done := make(chan int, 1)
	l.Post(func() {
		// A post from inside the loop runs after this closure, like a
		// zero-delay simulator event.
		l.Post(func() { done <- 2 })
	})
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested post never ran")
	}
}

// TestLoopMixedPostsRunInPostOrder posts from an outside goroutine and
// from inside running closures at once: whatever the interleaving, the
// closures run in the order their posts were accepted.
func TestLoopMixedPostsRunInPostOrder(t *testing.T) {
	l := NewLoop()
	var (
		mu   sync.Mutex // makes taking a sequence number and posting atomic
		next int
		ran  []int // loop-confined
	)
	var post func(nested int)
	post = func(nested int) {
		mu.Lock()
		defer mu.Unlock()
		seq := next
		next++
		l.Post(func() {
			ran = append(ran, seq)
			if nested > 0 {
				post(nested - 1)
			}
		})
	}
	total := 0
	for i := 0; i < 200; i++ {
		post(i % 3)
		total += 1 + i%3
	}
	// Nested posts may still be in flight; flush until all have run.
	count := make(chan int)
	for n := 0; n < total; n = <-count {
		l.Post(func() { count <- len(ran) })
	}
	l.Stop()
	for i, seq := range ran {
		if seq != i {
			t.Fatalf("closure %d ran at position %d: %v", seq, i, ran)
		}
	}
}

func TestLoopScheduleDelay(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	start := l.Now()
	done := make(chan float64, 1)
	l.Schedule(0.05, func() { done <- l.Now() })
	select {
	case at := <-done:
		if at-start < 0.045 {
			t.Fatalf("timer fired after %.3fs, want >= ~0.05s", at-start)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestLoopScheduleNonPositiveRunsSoon(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	done := make(chan struct{})
	l.Schedule(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("zero-delay schedule never ran")
	}
}

func TestLoopSerializesConcurrentPosts(t *testing.T) {
	l := NewLoop()
	// A plain int mutated by every closure: the race detector fails this
	// test if loop closures ever run concurrently.
	n := 0
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Post(func() { n++ })
			}
		}()
	}
	wg.Wait()
	flushed := make(chan struct{})
	l.Post(func() { close(flushed) })
	<-flushed
	l.Stop()
	if n != 8*200 {
		t.Fatalf("executed %d closures, want %d", n, 8*200)
	}
}

func TestLoopStopDrainsQueuedWork(t *testing.T) {
	l := NewLoop()
	n := 0
	for i := 0; i < 50; i++ {
		l.Post(func() { n++ })
	}
	l.Stop()
	if n != 50 {
		t.Fatalf("Stop drained %d of 50 queued closures", n)
	}
	// Posts and timer firings after Stop are dropped, not panics.
	l.Post(func() { n++ })
	l.Schedule(0, func() { n++ })
	time.Sleep(10 * time.Millisecond)
	if n != 50 {
		t.Fatalf("work ran after Stop: n=%d", n)
	}
}

func TestLoopNowMonotonic(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	a := l.Now()
	time.Sleep(time.Millisecond)
	b := l.Now()
	if b <= a {
		t.Fatalf("clock not advancing: %v then %v", a, b)
	}
}

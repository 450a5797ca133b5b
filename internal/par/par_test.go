package par

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcs(t *testing.T) {
	if got := Procs(3); got != 3 {
		t.Errorf("Procs(3) = %d, want 3", got)
	}
	if got := Procs(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(0) = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := Procs(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Procs(-5) = %d, want GOMAXPROCS", got)
	}
}

func TestBlockCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 101} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			prev := 0
			for i := 0; i < p; i++ {
				lo, hi := Block(n, p, i)
				if lo != prev {
					t.Fatalf("n=%d p=%d i=%d: lo=%d, want %d (contiguity)", n, p, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d p=%d i=%d: hi=%d < lo=%d", n, p, i, hi, lo)
				}
				if hi-lo > n/p+1 {
					t.Fatalf("n=%d p=%d i=%d: block size %d exceeds n/p+1", n, p, i, hi-lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d p=%d: blocks cover [0,%d), want [0,%d)", n, p, prev, n)
			}
		}
	}
}

func TestBlockBalanced(t *testing.T) {
	// Block sizes must differ by at most one.
	n, p := 103, 7
	minSz, maxSz := n, 0
	for i := 0; i < p; i++ {
		lo, hi := Block(n, p, i)
		sz := hi - lo
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Errorf("block sizes range [%d,%d]; want difference <= 1", minSz, maxSz)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 9} {
		n := 1000
		visits := make([]int32, n)
		For(p, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("p=%d: index %d visited %d times", p, i, v)
			}
		}
	}
}

func TestForEmptyAndSmall(t *testing.T) {
	called := false
	For(4, 0, func(lo, hi int) { called = true })
	if called {
		t.Error("For with n=0 should not invoke body")
	}
	count := 0
	For(8, 1, func(lo, hi int) { count += hi - lo })
	if count != 1 {
		t.Errorf("For with n=1 covered %d items, want 1", count)
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	p, n := 4, 100
	seen := make([]int32, p)
	ForWorker(p, n, func(w, lo, hi int) {
		atomic.AddInt32(&seen[w], 1)
	})
	total := int32(0)
	for _, s := range seen {
		if s > 1 {
			t.Errorf("worker invoked %d times, want at most 1", s)
		}
		total += s
	}
	if total == 0 {
		t.Error("no worker invoked")
	}
}

func TestForDynamicCoversAll(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, grain := range []int{0, 1, 17, 5000} {
			n := 2345
			visits := make([]int32, n)
			ForDynamic(p, n, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("p=%d grain=%d: index %d visited %d times", p, grain, i, v)
				}
			}
		}
	}
}

func TestRun(t *testing.T) {
	p := 5
	seen := make([]int32, p)
	Run(p, func(w int) { atomic.AddInt32(&seen[w], 1) })
	for w, s := range seen {
		if s != 1 {
			t.Errorf("worker %d ran %d times, want 1", w, s)
		}
	}
}

func TestReduceInt64Sum(t *testing.T) {
	n := 10000
	want := int64(n) * int64(n-1) / 2
	for _, p := range []int{1, 2, 4, 7} {
		got := ReduceInt64(p, n, 0, func(i int) int64 { return int64(i) },
			func(a, b int64) int64 { return a + b })
		if got != want {
			t.Errorf("p=%d: sum=%d, want %d", p, got, want)
		}
	}
}

func TestReduceInt64Empty(t *testing.T) {
	got := ReduceInt64(4, 0, -99, func(i int) int64 { return 0 },
		func(a, b int64) int64 { return a + b })
	if got != -99 {
		t.Errorf("empty reduce = %d, want identity -99", got)
	}
}

func TestCountTrue(t *testing.T) {
	n := 1000
	got := CountTrue(4, n, func(i int) bool { return i%3 == 0 })
	want := (n + 2) / 3
	if got != want {
		t.Errorf("CountTrue = %d, want %d", got, want)
	}
}

func TestPoolTakesHalf(t *testing.T) {
	q := NewPool(2, nil)
	q.Give([]int32{1, 2, 3, 4, 5})
	got, ok := q.Wait(&Canceler{}, []int32{9})
	if !ok || !slices.Equal(got, []int32{9, 3, 4, 5}) {
		t.Fatalf("Wait = %v, %v; want the newest half appended to the buffer: [9 3 4 5], true", got, ok)
	}
	got, ok = q.Wait(&Canceler{}, nil)
	if !ok || !slices.Equal(got, []int32{2}) {
		t.Fatalf("second Wait = %v, %v; want [2], true", got, ok)
	}
}

// The two TestDeque* tests keep the names of the per-worker deque checks
// that the pool's empty cases replace: a steal from empty shared work takes
// nothing, and an empty batch feeds no one.

// TestDequeStealEmpty: a lone worker waiting on an empty pool takes nothing
// and is told the traversal is over.
func TestDequeStealEmpty(t *testing.T) {
	q := NewPool(1, nil)
	if got, ok := q.Wait(&Canceler{}, nil); ok || got != nil {
		t.Fatalf("lone worker on an empty pool: Wait = %v, %v; want [], false", got, ok)
	}
}

// TestDequePushAllEmpty: giving the pool an empty batch leaves a waiting
// worker hungry; the next real item reaches it.
func TestDequePushAllEmpty(t *testing.T) {
	q := NewPool(2, nil)
	got := make(chan []int32, 1)
	go func() {
		buf, _ := q.Wait(&Canceler{}, nil)
		got <- buf
	}()
	for !q.Hungry() {
		runtime.Gosched()
	}
	q.Give(nil)
	q.Give([]int32{})
	if !q.Hungry() || q.avail.Load() != 0 {
		t.Fatalf("after empty batches: Hungry = %v, avail = %d; want true, 0", q.Hungry(), q.avail.Load())
	}
	q.Give([]int32{7})
	select {
	case buf := <-got:
		if !slices.Equal(buf, []int32{7}) {
			t.Fatalf("waiting worker got %v, want [7]", buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting worker never got the item")
	}
}

// TestPoolEndsWhenAllIdle: with the pool empty, Wait returns false once
// every worker waits, and only then.
func TestPoolEndsWhenAllIdle(t *testing.T) {
	q := NewPool(3, nil)
	var ended atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.Wait(&Canceler{}, nil); !ok {
				ended.Add(1)
			}
		}()
	}
	for q.idle.Load() < 2 {
		runtime.Gosched()
	}
	if ended.Load() != 0 {
		t.Fatal("Wait returned while a worker was still busy")
	}
	if _, ok := q.Wait(&Canceler{}, nil); ok {
		t.Fatal("last worker got work from an empty pool")
	}
	wg.Wait()
	if ended.Load() != 2 {
		t.Fatalf("%d of 2 waiting workers ended", ended.Load())
	}
}

// TestPoolSeedsOnlyWhenAllIdle: a lone idle worker never takes a seed;
// the worker whose Wait makes every worker idle with the pool empty gets
// the seed's next item, and once the seed has none, every Wait ends.
func TestPoolSeedsOnlyWhenAllIdle(t *testing.T) {
	var seeded atomic.Int32
	q := NewPool(2, func() (int32, bool) {
		if seeded.Add(1) > 1 {
			return 0, false
		}
		return 42, true
	})
	ended := make(chan bool, 1)
	go func() {
		_, ok := q.Wait(&Canceler{}, nil)
		ended <- ok
	}()
	for q.idle.Load() < 1 {
		runtime.Gosched()
	}
	if seeded.Load() != 0 {
		t.Fatal("a lone idle worker took a seed")
	}
	if buf, ok := q.Wait(&Canceler{}, nil); !ok || !slices.Equal(buf, []int32{42}) {
		t.Fatalf("last worker to go idle: Wait = %v, %v; want [42], true", buf, ok)
	}
	if _, ok := q.Wait(&Canceler{}, nil); ok {
		t.Fatal("Wait handed out work after the seed ran dry")
	}
	select {
	case ok := <-ended:
		if ok {
			t.Fatal("the first waiting worker got work")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first waiting worker never ended")
	}
}

func TestPoolWaitReturnsOnCancel(t *testing.T) {
	q := NewPool(2, nil)
	c := &Canceler{}
	done := make(chan bool)
	go func() {
		_, ok := q.Wait(c, nil)
		done <- ok
	}()
	for !q.Hungry() {
		runtime.Gosched()
	}
	c.Cancel(errors.New("stop"))
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Wait on a tripped canceler returned work")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not notice the canceler")
	}
}

// TestPoolConcurrentTotal drives the pool the way the spanning-tree
// traversal does, over an implicit binary tree of total items: private
// stacks, Give when Hungry, Wait when dry. Every item must be expanded
// exactly once.
func TestPoolConcurrentTotal(t *testing.T) {
	const total = 20000
	for _, p := range []int{1, 2, 3, 8} {
		q := NewPool(p, nil)
		seen := make([]atomic.Int32, total)
		Run(p, func(w int) {
			var stack []int32
			if w == 0 {
				stack = append(stack, 0)
			}
			for {
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					seen[v].Add(1)
					for _, c := range []int32{2*v + 1, 2*v + 2} {
						if c < total {
							stack = append(stack, c)
						}
					}
					if len(stack) >= 2 && q.Hungry() {
						k := len(stack) / 2
						q.Give(stack[:k])
						stack = stack[:copy(stack, stack[k:])]
					}
				}
				var ok bool
				if stack, ok = q.Wait(&Canceler{}, stack); !ok {
					return
				}
			}
		})
		for v := range seen {
			if n := seen[v].Load(); n != 1 {
				t.Fatalf("p=%d: item %d expanded %d times", p, v, n)
			}
		}
	}
}

func TestForDynamicRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(5000)
		p := 1 + rng.Intn(8)
		grain := rng.Intn(100)
		var sum atomic.Int64
		ForDynamic(p, n, grain, func(lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		want := int64(n) * int64(n-1) / 2
		if sum.Load() != want {
			t.Fatalf("trial %d (n=%d p=%d grain=%d): sum=%d want %d", trial, n, p, grain, sum.Load(), want)
		}
	}
}

func TestForWorkerEdgeCases(t *testing.T) {
	called := false
	ForWorker(4, 0, func(w, lo, hi int) { called = true })
	if called {
		t.Error("n=0 should not invoke body")
	}
	count := 0
	ForWorker(4, 1, func(w, lo, hi int) { count += hi - lo })
	if count != 1 {
		t.Errorf("n=1 covered %d items", count)
	}
	// p > n clamps.
	var covered atomic.Int64
	ForWorker(16, 3, func(w, lo, hi int) { covered.Add(int64(hi - lo)) })
	if covered.Load() != 3 {
		t.Errorf("p>n covered %d items, want 3", covered.Load())
	}
}

func TestRunSingleWorker(t *testing.T) {
	ran := false
	Run(1, func(w int) {
		if w != 0 {
			t.Errorf("worker id %d, want 0", w)
		}
		ran = true
	})
	if !ran {
		t.Error("worker did not run")
	}
}

// TestAllocsPerCall pins the objects each primitive allocates per call on a
// 4096-item loop: at p = 1 the loop runs on the caller, at p = 2 on two
// goroutines started by the one fork.
func TestAllocsPerCall(t *testing.T) {
	const n = 4096
	c := &Canceler{}
	loop := func(lo, hi int) {}
	spmd := func(w int) {}
	for _, tc := range []struct {
		name   string
		call   func(p int)
		p1, p2 float64
	}{
		{"For", func(p int) { For(p, n, loop) }, 0, 5},
		{"ForWorker", func(p int) { ForWorker(p, n, func(w, lo, hi int) {}) }, 0, 5},
		{"ForDynamic", func(p int) { ForDynamic(p, n, 0, loop) }, 0, 7},
		{"ForC", func(p int) { ForC(c, p, n, loop) }, 1, 5},
		{"ForDynamicC", func(p int) { ForDynamicC(c, p, n, 0, loop) }, 1, 6},
		{"Run", func(p int) { Run(p, spmd) }, 0, 4},
		{"RunC", func(p int) { RunC(c, p, spmd) }, 0, 4},
	} {
		for _, p := range []int{1, 2} {
			want := tc.p1
			if p == 2 {
				want = tc.p2
			}
			if got := testing.AllocsPerRun(100, func() { tc.call(p) }); got != want {
				t.Errorf("%s at p=%d: %v allocations per call, want %v", tc.name, p, got, want)
			}
		}
	}
}

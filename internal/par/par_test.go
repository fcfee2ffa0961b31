package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// rangeTask writes shard ownership over a disjoint range partition of
// out — the exact pattern the tiled kernels use.
type rangeTask struct {
	out   []int32
	calls atomic.Int32
}

func (t *rangeTask) RunShard(shard, shards int, _ *Scratch) {
	t.calls.Add(1)
	n := len(t.out)
	lo, hi := shard*n/shards, (shard+1)*n/shards
	for i := lo; i < hi; i++ {
		t.out[i] = int32(shard)
	}
}

func TestRunCoversAllShardsOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, shards := range []int{1, 2, 7, 16, 33} {
			task := &rangeTask{out: make([]int32, 97)}
			p.Run(shards, task)
			if got := int(task.calls.Load()); got != shards {
				t.Fatalf("workers=%d shards=%d: RunShard called %d times", workers, shards, got)
			}
			for i, v := range task.out {
				want := int32(0)
				for s := 0; s < shards; s++ {
					if i >= s*len(task.out)/shards && i < (s+1)*len(task.out)/shards {
						want = int32(s)
					}
				}
				if v != want {
					t.Fatalf("workers=%d shards=%d: out[%d]=%d want %d", workers, shards, i, v, want)
				}
			}
		}
		p.Close()
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool Size = %d, want 1", p.Size())
	}
	task := &rangeTask{out: make([]int32, 10)}
	p.Run(4, task)
	if got := int(task.calls.Load()); got != 4 {
		t.Fatalf("nil pool ran %d shards, want 4", got)
	}
}

func TestRunZeroShardsIsNoop(t *testing.T) {
	p := New(2)
	defer p.Close()
	task := &rangeTask{out: make([]int32, 1)}
	p.Run(0, task)
	p.Run(-3, task)
	if task.calls.Load() != 0 {
		t.Fatal("zero/negative shard counts must not invoke the task")
	}
}

func TestDefaultSizeFromGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if want := runtime.GOMAXPROCS(0); p.Size() != want {
		t.Fatalf("New(0).Size() = %d, want GOMAXPROCS %d", p.Size(), want)
	}
}

func TestRunAfterCloseExecutesInline(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	task := &rangeTask{out: make([]int32, 20)}
	p.Run(5, task)
	if got := int(task.calls.Load()); got != 5 {
		t.Fatalf("closed pool ran %d shards, want 5", got)
	}
}

// sumTask accumulates into a per-shard slot; the final sum checks no
// shard was lost or doubled even under heavy concurrent dispatch.
type sumTask struct {
	slots []int64
	base  int64
}

func (t *sumTask) RunShard(shard, shards int, _ *Scratch) {
	t.slots[shard] += t.base + int64(shard)
}

func TestConcurrentDispatchers(t *testing.T) {
	p := New(4)
	defer p.Close()
	const goroutines = 8
	const iters = 200
	const shards = 11
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			task := &sumTask{slots: make([]int64, shards), base: int64(g)}
			for i := 0; i < iters; i++ {
				p.Run(shards, task)
			}
			for sh, v := range task.slots {
				if want := iters * (int64(g) + int64(sh)); v != want {
					t.Errorf("goroutine %d shard %d: sum %d, want %d", g, sh, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// scratchTask exercises the pooled staging buffers.
type scratchTask struct {
	mu   sync.Mutex
	seen int
}

func (t *scratchTask) RunShard(shard, shards int, s *Scratch) {
	b := s.GrowI32(64)
	for i := range b {
		b[i] = int32(shard)
	}
	f := s.GrowF32(32)
	for i := range f {
		f[i] = float32(shard)
	}
	// Verify the buffer was not shared mid-shard with anyone else.
	for _, v := range b {
		if v != int32(shard) {
			panic("par: scratch shared across concurrent shards")
		}
	}
	t.mu.Lock()
	t.seen++
	t.mu.Unlock()
}

func TestScratchIsPerGoroutine(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &scratchTask{}
	for i := 0; i < 50; i++ {
		p.Run(9, task)
	}
	if task.seen != 450 {
		t.Fatalf("ran %d shards, want 450", task.seen)
	}
}

// TestDispatchZeroAllocs pins the steady-state dispatch path to zero
// heap allocations per Run once the record/scratch pools are warm —
// the same discipline the serve alloc-regression suite enforces for
// the frame path.
func TestDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	p := New(4)
	defer p.Close()
	task := &rangeTask{out: make([]int32, 1024)}
	for i := 0; i < 100; i++ { // warm dispatch records and scratches
		p.Run(8, task)
	}
	avg := testing.AllocsPerRun(200, func() {
		p.Run(8, task)
	})
	if avg > 0.05 {
		t.Fatalf("parallel dispatch allocates %.2f allocs/op, want 0", avg)
	}
}

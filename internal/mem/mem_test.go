package mem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(100)
	b1, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if a.Used() != 100 || a.Free() != 0 {
		t.Fatalf("used=%d free=%d", a.Used(), a.Free())
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("full allocator gave %v", err)
	}
	a.Release(b1)
	a.Release(b2)
	if a.Used() != 0 {
		t.Fatalf("used=%d after full release", a.Used())
	}
	if a.Peak() != 100 {
		t.Fatalf("peak=%d, want 100", a.Peak())
	}
	// After coalescing the full capacity is one run again.
	if _, err := a.Alloc(100); err != nil {
		t.Fatalf("coalesced alloc failed: %v", err)
	}
}

func TestAllocatorFragmentationError(t *testing.T) {
	a := NewAllocator(100)
	var blocks []Block
	for i := 0; i < 10; i++ {
		b, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	// Free every other block: 50 bytes free, largest run 10.
	for i := 0; i < 10; i += 2 {
		a.Release(blocks[i])
	}
	if got := a.LargestFree(); got != 10 {
		t.Fatalf("largest free = %d, want 10", got)
	}
	_, err := a.Alloc(30)
	if !errors.Is(err, ErrFragmented) {
		t.Fatalf("fragmented allocator gave %v, want ErrFragmented", err)
	}
}

func TestAllocatorCoalesceBothSides(t *testing.T) {
	a := NewAllocator(30)
	b1, _ := a.Alloc(10)
	b2, _ := a.Alloc(10)
	b3, _ := a.Alloc(10)
	a.Release(b1)
	a.Release(b3)
	a.Release(b2) // must merge with both neighbours
	if got := a.LargestFree(); got != 30 {
		t.Fatalf("largest free after merge = %d, want 30", got)
	}
}

func TestAllocatorZeroSize(t *testing.T) {
	a := NewAllocator(10)
	b, err := a.Alloc(0)
	if err != nil || b.Size != 0 {
		t.Fatalf("zero alloc: %v %v", b, err)
	}
	a.Release(b)
	if a.Used() != 0 {
		t.Fatal("zero alloc changed usage")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(10)
	b, _ := a.Alloc(5)
	a.Release(b)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Release(b)
}

// The Fig. 6b protocol: pre-fragment into 2 GB chunks; allocations > 2 GB
// must fail with ErrFragmented even on an empty device.
func TestPreFragmentBlocksLargeAllocations(t *testing.T) {
	const gb = int64(1) << 30
	a := NewAllocator(32 * gb)
	a.PreFragment(2 * gb)
	if _, err := a.Alloc(2*gb + 1); !errors.Is(err, ErrFragmented) {
		t.Fatalf("oversized alloc gave %v, want ErrFragmented", err)
	}
	// Exactly chunk-sized still works, and many of them fill the device.
	var blocks []Block
	for i := 0; i < 16; i++ {
		b, err := a.Alloc(2 * gb)
		if err != nil {
			t.Fatalf("chunk alloc %d: %v", i, err)
		}
		blocks = append(blocks, b)
	}
	if _, err := a.Alloc(2 * gb); err == nil {
		t.Fatal("17th chunk should fail")
	}
	// Freeing adjacent chunks must NOT re-coalesce across fences.
	for _, b := range blocks {
		a.Release(b)
	}
	if _, err := a.Alloc(2*gb + 1); !errors.Is(err, ErrFragmented) {
		t.Fatalf("post-release oversized alloc gave %v, want ErrFragmented", err)
	}
}

func TestResetPreservesFences(t *testing.T) {
	a := NewAllocator(100)
	a.PreFragment(25)
	b, _ := a.Alloc(20)
	_ = b
	a.Reset()
	if a.Used() != 0 {
		t.Fatal("Reset left usage")
	}
	if _, err := a.Alloc(26); !errors.Is(err, ErrFragmented) {
		t.Fatalf("fences lost after Reset: %v", err)
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := a.Alloc(128)
				if err != nil {
					t.Errorf("concurrent alloc: %v", err)
					return
				}
				a.Release(b)
			}
		}()
	}
	wg.Wait()
	if a.Used() != 0 {
		t.Fatalf("leaked %d bytes", a.Used())
	}
}

// Property: any sequence of alloc/release pairs leaves the allocator able to
// serve a full-capacity request (i.e. coalescing is complete without fences).
func TestAllocatorQuickCoalesce(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator(1 << 16)
		var blocks []Block
		for _, s := range sizes {
			b, err := a.Alloc(int64(s % 4096))
			if err != nil {
				break
			}
			blocks = append(blocks, b)
		}
		for i := len(blocks) - 1; i >= 0; i-- {
			a.Release(blocks[i])
		}
		_, err := a.Alloc(1 << 16)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker("gpu0")
	tr.Add(CatParamsFP16, 100)
	tr.Add(CatParamsFP16, 50)
	tr.Add(CatParamsFP16, -120)
	if got := tr.Live(CatParamsFP16); got != 30 {
		t.Fatalf("live = %d", got)
	}
	if got := tr.Peak(CatParamsFP16); got != 150 {
		t.Fatalf("peak = %d", got)
	}
	tr.Add(CatGradsFP16, 70)
	if got := tr.TotalLive(); got != 100 {
		t.Fatalf("total live = %d", got)
	}
	if got := tr.TotalPeak(); got != 220 {
		t.Fatalf("total peak = %d", got)
	}
	if s := tr.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestTrackerNegativePanics(t *testing.T) {
	tr := NewTracker("cpu")
	defer func() {
		if recover() == nil {
			t.Error("negative balance did not panic")
		}
	}()
	tr.Add(CatActCkpt, -1)
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KB"},
		{3 << 20, "3.0MB"},
		{int64(1536) << 30, "1.5TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

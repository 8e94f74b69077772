package overlap

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// Drain folds the oldest entries first, keeps the newest keep in issue
// order at the front of the slice, and zeroes the vacated tail.
func TestDrainKeepsNewestInIssueOrder(t *testing.T) {
	var folded []int
	fold := func(k int, _ []float32, _ []tensor.Half) { folded = append(folded, k) }
	pending := make([]Pending[int], 0, 8)
	for k := 1; k <= 6; k++ {
		pending = append(pending, Pending[int]{Key: k, Shard: make([]float32, 1)})
	}

	pending = Drain(pending, 4, fold)
	if !reflect.DeepEqual(folded, []int{1, 2}) {
		t.Fatalf("folded %v, want the two oldest", folded)
	}
	var kept []int
	for _, p := range pending {
		kept = append(kept, p.Key)
	}
	if !reflect.DeepEqual(kept, []int{3, 4, 5, 6}) {
		t.Fatalf("kept %v, want [3 4 5 6]", kept)
	}
	for i, p := range pending[len(pending):cap(pending)][:2] {
		if p.Key != 0 || p.Shard != nil {
			t.Fatalf("vacated entry %d not zeroed: %+v", i, p)
		}
	}

	if got := Drain(pending, 4, fold); len(got) != 4 || len(folded) != 2 {
		t.Fatalf("draining to the current length folded %v", folded[2:])
	}
	pending = Drain(pending, 0, fold)
	if len(pending) != 0 || !reflect.DeepEqual(folded, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("full drain left %d, folded %v", len(pending), folded)
	}
}

package listrank

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomList builds a random permutation list over n nodes and returns
// (next, head, order) where order[k] is the k-th node from the head.
func randomList(rng *rand.Rand, n int) (next []int32, head int32, order []int32) {
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	next = make([]int32, n)
	for k := 0; k < n; k++ {
		if k+1 < n {
			next[order[k]] = order[k+1]
		} else {
			next[order[k]] = -1
		}
	}
	return next, order[0], order
}

func TestSuffixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 17, 1000} {
		for _, p := range []int{1, 4} {
			next, _, order := randomList(rng, n)
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = int32(rng.Intn(21) - 10)
			}
			got := SuffixSum(p, next, vals)
			// Oracle: walk from tail backwards.
			want := make([]int32, n)
			acc := int32(0)
			for k := n - 1; k >= 0; k-- {
				acc += vals[order[k]]
				want[order[k]] = acc
			}
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d node %d: got %d want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRanksWyllie(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 64, 1001} {
		next, head, order := randomList(rng, n)
		got := Ranks(4, next, head)
		for k, v := range order {
			if got[v] != int32(k) {
				t.Fatalf("n=%d: node %d rank=%d, want %d", n, v, got[v], k)
			}
		}
	}
}

func TestRanksHJMatchesWyllie(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 100, 5000} {
		for _, p := range []int{1, 2, 8} {
			next, head, _ := randomList(rng, n)
			want := Ranks(1, next, head)
			got, err := RanksHJ(p, next, head)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d node %d: HJ=%d Wyllie=%d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRanksHJDetectsBrokenList(t *testing.T) {
	// Two separate lists: 0->1, 2->3. Head 0 covers only half the nodes.
	next := []int32{1, -1, 3, -1}
	if _, err := RanksHJ(2, next, 0); err == nil {
		t.Error("RanksHJ accepted a disconnected list")
	}
}

func TestRanksHJDetectsCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0: a cycle with no tail.
	next := []int32{1, 2, 0}
	if _, err := RanksHJ(2, next, 0); err == nil {
		t.Error("RanksHJ accepted a cyclic list")
	}
}

func TestEmptyList(t *testing.T) {
	if got := Ranks(2, nil, 0); got != nil {
		t.Errorf("Ranks(nil) = %v", got)
	}
	got, err := RanksHJ(2, nil, 0)
	if err != nil || got != nil {
		t.Errorf("RanksHJ(nil) = %v, %v", got, err)
	}
}

func TestSingleNode(t *testing.T) {
	next := []int32{-1}
	if got := Ranks(2, next, 0); got[0] != 0 {
		t.Errorf("single node rank=%d, want 0", got[0])
	}
	got, err := RanksHJ(2, next, 0)
	if err != nil || got[0] != 0 {
		t.Errorf("single node HJ rank=%v err=%v", got, err)
	}
}

// Property: for random permutation lists of any size, HJ and Wyllie agree
// and ranks are a permutation of 0..n-1.
func TestQuickRanksPermutation(t *testing.T) {
	f := func(seed int64, sz uint16, p uint8) bool {
		n := int(sz%2000) + 1
		pp := int(p%8) + 1
		rng := rand.New(rand.NewSource(seed))
		next, head, _ := randomList(rng, n)
		w := Ranks(pp, next, head)
		hj, err := RanksHJ(pp, next, head)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			if w[i] != hj[i] {
				return false
			}
			if w[i] < 0 || int(w[i]) >= n || seen[w[i]] {
				return false
			}
			seen[w[i]] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

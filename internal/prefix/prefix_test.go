package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func seqInclusive(xs []int32) []int32 {
	out := make([]int32, len(xs))
	var acc int32
	for i, x := range xs {
		acc += x
		out[i] = acc
	}
	return out
}

func randSlice(rng *rand.Rand, n int) []int32 {
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(rng.Intn(201) - 100)
	}
	return xs
}

func TestInclusiveSum32MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 1000, 4097} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			xs := randSlice(rng, n)
			want := seqInclusive(xs)
			got := append([]int32(nil), xs...)
			total := InclusiveSum32(p, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: got[%d]=%d, want %d", n, p, i, got[i], want[i])
				}
			}
			var wantTotal int32
			if n > 0 {
				wantTotal = want[n-1]
			}
			if total != wantTotal {
				t.Fatalf("n=%d p=%d: total=%d, want %d", n, p, total, wantTotal)
			}
		}
	}
}

func TestExclusiveSum32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 5, 100, 1023, 1024} {
		for _, p := range []int{1, 2, 4, 7} {
			xs := randSlice(rng, n)
			inc := seqInclusive(xs)
			got := append([]int32(nil), xs...)
			total := ExclusiveSum32(p, got)
			for i := range got {
				want := int32(0)
				if i > 0 {
					want = inc[i-1]
				}
				if got[i] != want {
					t.Fatalf("n=%d p=%d: got[%d]=%d, want %d", n, p, i, got[i], want)
				}
			}
			var wantTotal int32
			if n > 0 {
				wantTotal = inc[n-1]
			}
			if total != wantTotal {
				t.Fatalf("n=%d p=%d: total=%d, want %d", n, p, total, wantTotal)
			}
		}
	}
}

func TestCompact(t *testing.T) {
	n := 1000
	got := Compact(4, n, func(i int) bool { return i%7 == 0 })
	idx := 0
	for i := 0; i < n; i++ {
		if i%7 == 0 {
			if idx >= len(got) || got[idx] != int32(i) {
				t.Fatalf("Compact missing or misordered index %d", i)
			}
			idx++
		}
	}
	if idx != len(got) {
		t.Fatalf("Compact returned %d extra items", len(got)-idx)
	}
}

func TestCompactEmpty(t *testing.T) {
	if got := Compact(4, 0, func(i int) bool { return true }); len(got) != 0 {
		t.Errorf("Compact on empty range returned %v", got)
	}
	if got := Compact(4, 100, func(i int) bool { return false }); len(got) != 0 {
		t.Errorf("Compact with nothing kept returned %v", got)
	}
}

// Property: parallel inclusive scan equals sequential scan for arbitrary
// inputs and processor counts.
func TestQuickInclusiveSum(t *testing.T) {
	f := func(xs []int32, p uint8) bool {
		pp := int(p%8) + 1
		got := append([]int32(nil), xs...)
		InclusiveSum32(pp, got)
		want := seqInclusive(xs)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: exclusive scan then shifting left one and adding input yields
// the inclusive scan.
func TestQuickExclusiveVsInclusive(t *testing.T) {
	f := func(xs []int32, p uint8) bool {
		pp := int(p%8) + 1
		exc := append([]int32(nil), xs...)
		ExclusiveSum32(pp, exc)
		inc := seqInclusive(xs)
		for i := range xs {
			if exc[i]+xs[i] != inc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package psort

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randKeys(rng *rand.Rand, n int, space uint64) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		if space == 0 {
			xs[i] = rng.Uint64()
		} else {
			xs[i] = rng.Uint64() % space
		}
	}
	return xs
}

// keyPairs pairs each key with its input position.
func keyPairs(keys []uint64) []Pair {
	items := make([]Pair, len(keys))
	for i, k := range keys {
		items[i] = Pair{Key: k, Val: int32(i)}
	}
	return items
}

func byKey(a, b Pair) int { return cmp.Compare(a.Key, b.Key) }

func TestSampleSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 50000} {
		for _, p := range []int{1, 2, 4, 8} {
			xs := keyPairs(randKeys(rng, n, 0))
			want := append([]Pair(nil), xs...)
			slices.SortFunc(want, byKey)
			SampleSortPairs(p, xs)
			for i := range want {
				if xs[i] != want[i] {
					t.Fatalf("n=%d p=%d: xs[%d]=%+v, want %+v", n, p, i, xs[i], want[i])
				}
			}
		}
	}
}

func TestSampleSortDuplicateHeavy(t *testing.T) {
	// Many duplicates stress splitter selection (empty buckets, ties).
	rng := rand.New(rand.NewSource(2))
	keys := randKeys(rng, 30000, 8)
	xs := keyPairs(keys)
	slices.Sort(keys)
	SampleSortPairs(4, xs)
	for i, k := range keys {
		if xs[i].Key != k {
			t.Fatalf("xs[%d].Key=%d, want %d", i, xs[i].Key, k)
		}
	}
}

func TestSampleSortAllEqual(t *testing.T) {
	xs := keyPairs(make([]uint64, 20000))
	SampleSortPairs(4, xs)
	seen := make([]bool, len(xs))
	for i, x := range xs {
		if x.Key != 0 || seen[x.Val] {
			t.Fatalf("xs[%d]=%+v: not a permutation of the input", i, x)
		}
		seen[x.Val] = true
	}
}

func TestSampleSortPairsKeepsPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	items := make([]Pair, n)
	for i := range items {
		// Distinct keys so payload mapping is uniquely determined.
		items[i] = Pair{Key: uint64(i)<<20 | uint64(rng.Intn(1<<20)), Val: int32(i)}
	}
	rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
	orig := map[uint64]int32{}
	for _, it := range items {
		orig[it.Key] = it.Val
	}
	SampleSortPairs(4, items)
	if !slices.IsSortedFunc(items, byKey) {
		t.Fatal("not sorted")
	}
	for _, it := range items {
		if orig[it.Key] != it.Val {
			t.Fatalf("payload detached: key %d has val %d, want %d", it.Key, it.Val, orig[it.Key])
		}
	}
}

func TestQuickSampleSortIsPermutationSorted(t *testing.T) {
	f := func(xs []uint64, p uint8) bool {
		pp := int(p%8) + 1
		counts := map[uint64]int{}
		for _, x := range xs {
			counts[x]++
		}
		ys := keyPairs(xs)
		SampleSortPairs(pp, ys)
		if !slices.IsSortedFunc(ys, byKey) {
			return false
		}
		for _, y := range ys {
			counts[y.Key]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSortPairsDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, n := range []int{0, 5, 100, 20000} {
		items := make([]Pair, n)
		for i := range items {
			items[i] = Pair{Key: rng.Uint64() % 64, Val: int32(i)} // heavy duplicates
		}
		want := append([]Pair(nil), items...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		quickSortPairs(items)
		for i := range items {
			if items[i].Key != want[i].Key {
				t.Fatalf("n=%d: key order broken at %d", n, i)
			}
		}
	}
	// Adversarial shapes: sorted, reversed, all-equal, two-valued.
	shapes := map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(i) },
		"descending": func(i int) uint64 { return uint64(5000 - i) },
		"equal":      func(int) uint64 { return 42 },
		"two-valued": func(i int) uint64 { return uint64(i % 2) },
	}
	for name, key := range shapes {
		keys := make([]uint64, 5000)
		for i := range keys {
			keys[i] = key(i)
		}
		items := keyPairs(keys)
		quickSortPairs(items)
		slices.Sort(keys)
		for i, k := range keys {
			if items[i].Key != k {
				t.Fatalf("%s: mismatch at %d", name, i)
			}
		}
	}
}

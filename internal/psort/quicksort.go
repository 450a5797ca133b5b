package psort

// A specialized sequential sort for the (key, payload) records the sample
// sort handles. Direct uint64 comparisons avoid the interface-call overhead
// of sort.Slice, which the Euler-tour ablation showed dominating the TV-SMP
// sort step. Partitioning is three-way (Dutch national flag), so
// duplicate-heavy inputs — common after splitter ties — stay linear.

const insertionCutoff = 24

// quickSortPairs sorts ascending by Key: median-of-three pivot, three-way
// partition, insertion sort below the cutoff, iteration on the larger side.
func quickSortPairs(xs []Pair) {
	for len(xs) > insertionCutoff {
		lt, gt := partition3Pairs(xs)
		if lt < len(xs)-gt {
			quickSortPairs(xs[:lt])
			xs = xs[gt:]
		} else {
			quickSortPairs(xs[gt:])
			xs = xs[:lt]
		}
	}
	insertionPairs(xs)
}

func insertionPairs(xs []Pair) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j].Key > v.Key {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

func median3Pairs(xs []Pair) uint64 {
	a, b, c := xs[0].Key, xs[len(xs)/2].Key, xs[len(xs)-1].Key
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

func partition3Pairs(xs []Pair) (lt, gt int) {
	pivot := median3Pairs(xs)
	lo, i, hi := 0, 0, len(xs)
	for i < hi {
		switch {
		case xs[i].Key < pivot:
			xs[lo], xs[i] = xs[i], xs[lo]
			lo++
			i++
		case xs[i].Key > pivot:
			hi--
			xs[i], xs[hi] = xs[hi], xs[i]
		default:
			i++
		}
	}
	return lo, hi
}

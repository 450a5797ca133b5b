package obs

import "testing"

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	// Re-registration returns the same counter.
	if again := r.Counter("t_total", "help"); again != c {
		t.Fatal("re-registered counter is a different instance")
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_total", "help", "kind")
	a := v.With("a")
	if v.With("a") != a {
		t.Fatal("same label values yielded a different counter")
	}
	if v.With("b") == a {
		t.Fatal("different label values yielded the same counter")
	}
	// Label values that would collide under naive concatenation must not:
	// ("ab", "c") vs ("a", "bc").
	h := r.HistogramVec("t_seconds", "help", "x", "y")
	h1 := h.With("ab", "c")
	h2 := h.With("a", "bc")
	if h1 == h2 {
		t.Fatal(`("ab","c") and ("a","bc") resolved to the same series`)
	}
}

func TestMismatchedReregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "help")
	for name, fn := range map[string]func(){
		"type":   func() { r.Histogram("t_total", "help") },
		"labels": func() { r.CounterVec("t_total", "help", "kind") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("t_total", "help", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong label value count did not panic")
		}
	}()
	v.With("only-one")
}

func TestEnabledGate(t *testing.T) {
	old := Enabled()
	defer SetEnabled(old)
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() true after SetEnabled(false)")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("Enabled() false after SetEnabled(true)")
	}
}

package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestCaseAtMatchesCases is the streaming contract: CaseAt(i) must equal
// Cases()[i] — same name, index and values — across randomized axis
// shapes, so a consumer can stream a grid without materialising it.
func TestCaseAtMatchesCases(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := NewGrid()
		nAxes := 1 + rng.Intn(4)
		for a := 0; a < nAxes; a++ {
			k := 1 + rng.Intn(5)
			switch rng.Intn(3) {
			case 0:
				vs := make([]float64, k)
				for i := range vs {
					vs[i] = rng.Float64() * 100
				}
				g.Floats(fmt.Sprintf("f%d", a), vs...)
			case 1:
				vs := make([]any, k)
				for i := range vs {
					vs[i] = rng.Intn(1000)
				}
				g.Axis(fmt.Sprintf("i%d", a), vs...)
			default:
				vs := make([]any, k)
				for i := range vs {
					vs[i] = fmt.Sprintf("name-%d", rng.Intn(100))
				}
				g.Axis(fmt.Sprintf("n%d", a), vs...)
			}
		}
		all := g.Cases()
		if len(all) != g.Size() {
			t.Fatalf("trial %d: len(Cases())=%d, Size()=%d", trial, len(all), g.Size())
		}
		for i, want := range all {
			got := g.CaseAt(i)
			if got.Name != want.Name || got.Index != want.Index {
				t.Fatalf("trial %d: CaseAt(%d)=%+v, Cases()[%d]=%+v", trial, i, got, i, want)
			}
			if !reflect.DeepEqual(got.Values, want.Values) {
				t.Fatalf("trial %d: CaseAt(%d).Values=%v, want %v", trial, i, got.Values, want.Values)
			}
		}
	}
}

// TestSizeCheckedOverflow pins the overflow fix: a cross product beyond
// int capacity must surface an error instead of wrapping silently.
func TestSizeCheckedOverflow(t *testing.T) {
	wide := make([]float64, 100_000)
	g := NewGrid()
	for a := 0; a < 5; a++ {
		g.Floats(fmt.Sprintf("axis%d", a), wide...) // (1e5)^5 = 1e25 >> MaxInt
	}
	if _, err := g.SizeChecked(); err == nil {
		t.Fatal("SizeChecked: want overflow error, got nil")
	} else if !strings.Contains(err.Error(), "overflows int") {
		t.Fatalf("SizeChecked error %q does not name the overflow", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Size: want panic on overflow, got none")
		}
		if !strings.Contains(fmt.Sprint(r), "overflows int") {
			t.Fatalf("Size panic %v does not name the overflow", r)
		}
	}()
	g.Size()
}

// TestSizeCheckedBoundary exercises products right at the edge of int.
func TestSizeCheckedBoundary(t *testing.T) {
	g := NewGrid().Floats("a", make([]float64, 1<<16)...).
		Floats("b", make([]float64, 1<<16)...)
	n, err := g.SizeChecked()
	if err != nil || n != 1<<32 {
		t.Fatalf("SizeChecked = %d, %v; want %d, nil", n, err, 1<<32)
	}
	if math.MaxInt <= 1<<32 {
		t.Skip("32-bit int: the product above would overflow")
	}
}

// TestCaseAtOutOfRange pins the panic message: it must name the index
// and the grid size so a miscounting caller can see both at once.
func TestCaseAtOutOfRange(t *testing.T) {
	g := NewGrid().Floats("c", 1, 2, 3)
	for _, i := range []int{-1, 3, 100} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("CaseAt(%d): want panic, got none", i)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, fmt.Sprintf("CaseAt(%d)", i)) || !strings.Contains(msg, "grid of 3 cases") {
					t.Fatalf("CaseAt(%d) panic %q does not name index and grid size", i, msg)
				}
			}()
			g.CaseAt(i)
		}()
	}
}

// TestEmptyGridSize: a grid with no axes has zero cases on both paths.
func TestEmptyGridSize(t *testing.T) {
	g := NewGrid()
	if n := g.Size(); n != 0 {
		t.Fatalf("empty grid Size = %d, want 0", n)
	}
	if cs := g.Cases(); len(cs) != 0 {
		t.Fatalf("empty grid Cases len = %d, want 0", len(cs))
	}
}

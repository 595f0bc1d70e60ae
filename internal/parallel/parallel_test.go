package parallel

import (
	"errors"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 100)
		if err := For(len(out), workers, func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not visited (got %d)", workers, i, v)
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := For(10, 4, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error %v", err, errA)
	}
}

func TestForEmpty(t *testing.T) {
	if err := For(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

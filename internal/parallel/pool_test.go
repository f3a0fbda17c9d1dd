package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAllTasks(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var count atomic.Int64
		seen := make([]atomic.Bool, 50)
		err := ForEach(workers, 50, func(i int) error {
			count.Add(1)
			seen[i].Store(true)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != 50 {
			t.Fatalf("workers=%d: ran %d tasks", workers, count.Load())
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("workers=%d: task %d not run", workers, i)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCollectsAllErrors(t *testing.T) {
	bad := errors.New("boom")
	err := ForEach(4, 10, func(i int) error {
		if i%3 == 0 {
			return bad
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, bad) {
		t.Fatalf("error chain lost: %v", err)
	}
	// Tasks 0, 3, 6, 9 failed; all four must be reported.
	for _, want := range []string{"task 0", "task 3", "task 6", "task 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing %q in %v", want, err)
		}
	}
}

func TestForEachSerialErrorOrder(t *testing.T) {
	err := ForEach(1, 3, func(i int) error { return errors.New("x") })
	if err == nil {
		t.Fatal("expected error")
	}
	s := err.Error()
	if strings.Index(s, "task 0") > strings.Index(s, "task 2") {
		t.Errorf("errors out of order: %v", s)
	}
}

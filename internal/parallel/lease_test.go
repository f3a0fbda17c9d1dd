package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

// A lease loads once for the jobs sharing it, however many ask at once,
// drops the value after its last use and loads again when asked after that;
// a failed load is returned and not held.
func TestLeaseLoadsOncePerUseRound(t *testing.T) {
	var loads atomic.Int32
	l := &Lease[[]int]{Uses: 8, Load: func() ([]int, error) {
		loads.Add(1)
		return []int{1, 2, 3}, nil
	}}
	for round := 1; round <= 2; round++ {
		err := ForEach(4, l.Uses, func(int) error {
			v, err := l.Get()
			if err != nil {
				return err
			}
			defer l.Done()
			if len(v) != 3 {
				t.Errorf("value %v", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := loads.Load(); got != int32(round) {
			t.Fatalf("round %d: %d loads", round, got)
		}
	}

	boom := errors.New("boom")
	failing := &Lease[int]{Uses: 1, Load: func() (int, error) { return 0, boom }}
	for i := 0; i < 2; i++ {
		if _, err := failing.Get(); !errors.Is(err, boom) {
			t.Fatalf("Get = %v, want the load's error", err)
		}
	}
}

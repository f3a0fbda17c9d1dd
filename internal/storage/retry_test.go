package storage

import (
	"errors"
	"testing"
	"time"
)

// retryStack builds the canonical remote stack — Retry over Meter over a
// flaky ObjStore — with backoff delays billed to the meter's sim clock.
// The store flakes every 2nd PUT and a warm-up PUT (issued below the
// meter, so it charges nothing) burns slot #1: the first metered attempt
// lands on PUT #2 and fails, its retry on PUT #3 and succeeds.
func retryStack(t *testing.T) (*Retry, *Meter, *ObjStore) {
	t.Helper()
	obj := NewObjStore()
	obj.SetFlakeEvery(2)
	if err := obj.WriteFile("warmup", []byte("x")); err != nil {
		t.Fatalf("warm-up put: %v", err)
	}
	m := NewMeter(obj, Lustre())
	r := NewRetry(m, 42)
	r.Sleep = m.AddSimTime
	return r, m, obj
}

// TestRetryMeteringPerAttempt is the satellite regression: a retried PUT
// must re-charge open latency and per-chunk bandwidth on EVERY attempt —
// an uncharged retry would silently flatter the BENCH numbers and the
// cost model. The failed first attempt and the successful second one each
// count one file and one payload's bytes.
func TestRetryMeteringPerAttempt(t *testing.T) {
	r, m, _ := retryStack(t) // first metered PUT flakes, its retry succeeds
	payload := make([]byte, 1<<16)
	if err := r.WriteFile("k", payload); err != nil {
		t.Fatalf("WriteFile through retry: %v", err)
	}
	if r.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", r.Retries())
	}
	st := m.Stats()
	if st.FilesWritten != 2 {
		t.Fatalf("FilesWritten = %d, want 2 (one per attempt)", st.FilesWritten)
	}
	if want := int64(2 * len(payload)); st.BytesWritten != want {
		t.Fatalf("BytesWritten = %d, want %d (payload re-sent on retry)", st.BytesWritten, want)
	}
	// The sim clock carries both attempts' transfer time AND the backoff
	// wait between them.
	twoPuts := 2 * m.Profile.WriteTime(int64(len(payload)))
	if st.SimTime <= twoPuts {
		t.Fatalf("SimTime = %v, want > %v (two attempts plus backoff)", st.SimTime, twoPuts)
	}
}

// TestRetryCreateReplaysWholeObject pins the stream contract: Create
// buffers and replays as an idempotent whole-object PUT, so a transient
// failure at publish re-sends (and re-charges) the entire payload.
func TestRetryCreateReplaysWholeObject(t *testing.T) {
	r, m, _ := retryStack(t)
	w, err := r.Create("s/obj")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Write(make([]byte, 1024)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, err := r.Stat("s/obj"); err != nil || n != 4096 {
		t.Fatalf("Stat = %d, %v; want 4096", n, err)
	}
	st := m.Stats()
	if st.FilesWritten != 2 || st.BytesWritten != 2*4096 {
		t.Fatalf("stats = %d files / %d bytes, want 2 files / %d bytes", st.FilesWritten, st.BytesWritten, 2*4096)
	}
}

// TestMeterChargesFailedWrite pins the Meter half of the fix in
// isolation: a PUT that fails still moved its bytes, so it is charged.
func TestMeterChargesFailedWrite(t *testing.T) {
	obj := NewObjStore()
	obj.SetFlakeEvery(1)
	m := NewMeter(obj, Lustre())
	if err := m.WriteFile("k", make([]byte, 512)); err == nil {
		t.Fatalf("flaked write succeeded")
	}
	st := m.Stats()
	if st.FilesWritten != 1 || st.BytesWritten != 512 {
		t.Fatalf("failed write uncharged: %d files / %d bytes", st.FilesWritten, st.BytesWritten)
	}
}

func TestRetryBoundedAttempts(t *testing.T) {
	obj := NewObjStore()
	obj.SetFlakeEvery(1) // every PUT fails
	r := NewRetry(obj, 1)
	r.Sleep = func(time.Duration) {}
	err := r.WriteFile("k", []byte("v"))
	if err == nil {
		t.Fatalf("write through an always-flaky store succeeded")
	}
	if !isTransient(err) {
		t.Fatalf("exhausted retries must surface the transient cause, got %v", err)
	}
	if got := r.Retries(); got != defaultRetryAttempts-1 {
		t.Fatalf("Retries = %d, want %d", got, defaultRetryAttempts-1)
	}
}

// TestRetryLeavesInjectedFaultsAlone: crash-exploration faults are NOT
// transient — retrying them would hide crash points from the exploration
// loop.
func TestRetryLeavesInjectedFaultsAlone(t *testing.T) {
	f := NewFault(NewObjStore())
	f.FailAt(1)
	r := NewRetry(f, 1)
	r.Sleep = func(time.Duration) {}
	err := r.WriteFile("k", []byte("v"))
	if !IsInjected(err) {
		t.Fatalf("want the injected fault surfaced, got %v", err)
	}
	if r.Retries() != 0 {
		t.Fatalf("injected fault was retried %d times", r.Retries())
	}
}

// TestRetryBackoffDeterministic pins the seeded jitter schedule: two
// wrappers with the same seed bill identical backoff to the sim clock.
func TestRetryBackoffDeterministic(t *testing.T) {
	run := func() time.Duration {
		var total time.Duration
		obj := NewObjStore()
		obj.SetFlakeEvery(2)
		r := NewRetry(obj, 99)
		r.Sleep = func(d time.Duration) { total += d }
		for i := 0; i < 16; i++ {
			if err := r.WriteFile("k", []byte("v")); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		return total
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("backoff schedules diverge: %v vs %v", a, b)
	}
}

func TestRetryErrorChainStaysInspectable(t *testing.T) {
	// isTransient answers through wrapped chains — a retry loop above a
	// Meter above an ObjStore still classifies correctly.
	obj := NewObjStore()
	obj.SetFlakeEvery(1)
	m := NewMeter(obj, LocalNVMe())
	err := m.WriteFile("k", []byte("v"))
	if !isTransient(err) {
		t.Fatalf("transient lost through Meter: %v", err)
	}
	if isTransient(errors.New("other")) {
		t.Fatalf("isTransient(other) = true")
	}
}

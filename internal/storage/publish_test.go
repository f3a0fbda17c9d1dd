package storage

import (
	"strings"
	"testing"
)

// writeCounter counts whole-file writes and steals a ref-record staging file
// just before its publishing rename, the way a sweep running beside a live
// append can; steals bounds how often.
type writeCounter struct {
	Backend
	writes, steals int
}

func (c *writeCounter) Unwrap() Backend { return c.Backend }

func (c *writeCounter) WriteFile(name string, data []byte) error {
	c.writes++
	return c.Backend.WriteFile(name, data)
}

func (c *writeCounter) Rename(oldName, newName string) error {
	if c.steals != 0 && strings.HasSuffix(oldName, refStageSuffix) {
		c.steals--
		c.Backend.Remove(oldName)
	}
	return c.Backend.Rename(oldName, newName)
}

// TestPublishFile pins the one atomic small-file publish. On a rename
// backend it is stage write + rename, and a fault at either step — torn
// writes included — leaves the final name holding the old content or the
// new, never a prefix. On a no-rename backend it is exactly one PUT and the
// staging name is never touched. A ref-record append keeps its two
// properties around the call: a staging file stolen by a concurrent sweep is
// survived (bounded), a failed stage write or PUT is reported, not retried.
func TestPublishFile(t *testing.T) {
	const stage, final = "run/latest.tmp", "run/latest"
	for _, torn := range []bool{false, true} {
		for k := 1; k <= 3; k++ {
			base := NewMem()
			writeAll(t, base, final, "old-content")
			f := NewFault(base)
			f.SetTorn(torn)
			f.FailAt(k)
			err := PublishFile(f, stage, final, []byte("new-content"))
			got, rerr := base.ReadFile(final)
			if rerr != nil {
				t.Fatalf("torn=%v k=%d: final unreadable: %v", torn, k, rerr)
			}
			switch {
			case k <= 2 && (!IsInjected(err) || string(got) != "old-content"):
				t.Fatalf("torn=%v k=%d: err = %v, final = %q, want the fault and the old content", torn, k, err, got)
			case k == 3 && (err != nil || string(got) != "new-content" || base.Exists(stage) || f.Ops() != 2):
				t.Fatalf("torn=%v: fault-free publish: err = %v, final = %q, %d fault points", torn, err, got, f.Ops())
			}
		}
	}

	obj := NewObjStore()
	writeAll(t, obj, final, "old-content")
	f := NewFault(obj)
	if err := PublishFile(f, stage, final, []byte("new-content")); err != nil {
		t.Fatal(err)
	}
	if got, _ := obj.ReadFile(final); string(got) != "new-content" || obj.Exists(stage) || f.Ops() != 1 {
		t.Fatalf("no-rename publish: final = %q, staged = %v, %d requests, want one PUT", got, obj.Exists(stage), f.Ops())
	}

	rec := &RefRecord{Version: 1, Key: "checkpoint-1", Step: 1, Generation: 1, Digests: []string{testDigest(0)}}
	thief := &writeCounter{Backend: NewMem(), steals: 3}
	ix := NewRefIndex(thief, "run/objects")
	if err := ix.Append(rec); err != nil {
		t.Fatalf("append beside a stealing sweep: %v", err)
	}
	if entries, staging, _, _ := ix.Entries(); len(entries) != 1 || len(staging) != 0 || thief.writes != 4 {
		t.Fatalf("after 3 steals: %d records, %d staging files, %d stage writes (want 1, 0, 4)", len(entries), len(staging), thief.writes)
	}
	thief = &writeCounter{Backend: NewMem(), steals: -1}
	if err := NewRefIndex(thief, "run/objects").Append(rec); !IsNotExist(err) || thief.writes != 8 {
		t.Fatalf("a sweep that always steals: err = %v after %d stage writes, want not-exist after 8", err, thief.writes)
	}
	for _, base := range []Backend{NewMem(), NewObjStore()} {
		for _, torn := range []bool{false, true} {
			count := &writeCounter{Backend: NewFault(base)}
			count.Backend.(*Fault).SetTorn(torn)
			count.Backend.(*Fault).FailAt(1)
			err := NewRefIndex(count, "run/objects").Append(rec)
			if !IsInjected(err) || count.writes != 1 {
				t.Fatalf("%T torn=%v: failed write: err = %v after %d writes, want the fault reported after 1", base, torn, err, count.writes)
			}
		}
	}
}

package storage

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// putBytes stores a byte slice raw under its own digest — the convenience the
// store's tests used to get from BlobStore.PutBytes, over the one put.
func putBytes(s *BlobStore, data []byte) (digest string, written bool, err error) {
	digest = DigestBytes(data)
	res, err := s.PutStreamOpts(digest, BlobPutOptions{}, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return digest, res.Written, err
}

func TestBlobStorePutGetRoundtrip(t *testing.T) {
	for name, b := range map[string]Backend{"mem": NewMem()} {
		t.Run(name, func(t *testing.T) {
			s := NewBlobStore(b, "run/objects")
			data := []byte("layer payload bytes")
			digest, written, err := putBytes(s, data)
			if err != nil {
				t.Fatal(err)
			}
			if !written {
				t.Fatal("first put reported a dedup hit")
			}
			if !ValidDigest(digest) {
				t.Fatalf("digest %q malformed", digest)
			}
			if !s.Has(digest) {
				t.Fatal("blob missing after put")
			}
			if size, err := s.Stat(digest); err != nil || size != int64(len(data)) {
				t.Fatalf("stat = %d, %v", size, err)
			}
			rc, err := s.Open(digest)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := got.ReadFrom(rc); err != nil {
				t.Fatal(err)
			}
			rc.Close()
			if !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("roundtrip = %q", got.Bytes())
			}
			// Fan-out layout: two-char prefix directory.
			if want := "run/objects/" + digest[:2] + "/" + digest; s.Path(digest) != want {
				t.Fatalf("path = %q, want %q", s.Path(digest), want)
			}

			// Idempotent: the second put moves zero bytes.
			_, written, err = putBytes(s, data)
			if err != nil {
				t.Fatal(err)
			}
			if written {
				t.Fatal("second put rewrote the blob")
			}
		})
	}
}

func TestBlobWriterRejectsDigestMismatch(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	wrong := DigestBytes([]byte("other"))
	w, err := s.writer(wrong)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("content"))
	if _, err := w.commit(); err == nil {
		t.Fatal("mismatched digest accepted")
	}
	if s.Has(wrong) {
		t.Fatal("corrupt blob published")
	}
	// The failed commit leaves no staging residue either.
	if _, staging, _, _ := s.List(); len(staging) != 0 {
		t.Fatalf("staging residue: %v", staging)
	}
}

func TestBlobStoreRejectsMalformedDigests(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	for _, d := range []string{"", "zz", strings.Repeat("g", 64), strings.Repeat("A", 64), "../escape"} {
		if s.Has(d) {
			t.Errorf("Has(%q) = true", d)
		}
		if _, err := s.PutStreamOpts(d, BlobPutOptions{}, func(io.Writer) (int64, error) { return 0, nil }); err == nil {
			t.Errorf("PutStreamOpts(%q) accepted", d)
		}
		if _, err := s.Open(d); err == nil {
			t.Errorf("Open(%q) accepted", d)
		}
	}
}

func TestBlobStoreListAndSweep(t *testing.T) {
	b := NewMem()
	s := NewBlobStore(b, "run/objects")
	d1, _, err := putBytes(s, []byte("referenced"))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := putBytes(s, []byte("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	// Crashed-put residue and a stray entry.
	b.WriteFile("run/objects/.stage/put-99", []byte("partial"))
	b.WriteFile("run/objects/notes.txt", []byte("x"))

	blobs, staging, stray, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 || len(staging) != 1 || len(stray) != 1 {
		t.Fatalf("list = %d blobs, %v staging, %v stray", len(blobs), staging, stray)
	}

	rep, err := s.Sweep(SweepSpec{Pins: map[string]int{d1: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kept != 1 || len(rep.RemovedBlobs) != 1 || rep.RemovedBlobs[0] != d2 {
		t.Fatalf("sweep = %+v", rep)
	}
	if len(rep.RemovedStaging) != 1 {
		t.Fatalf("staging survived sweep: %+v", rep)
	}
	if rep.BytesFreed != int64(len("garbage")) {
		t.Fatalf("bytes freed = %d", rep.BytesFreed)
	}
	if !s.Has(d1) {
		t.Fatal("referenced blob swept")
	}
	if s.Has(d2) {
		t.Fatal("unreferenced blob survived")
	}
	// The stray file is never touched.
	if !b.Exists("run/objects/notes.txt") {
		t.Fatal("sweep removed a stray entry")
	}
	// Sweeping an empty/absent store is a no-op.
	empty := NewBlobStore(b, "nowhere/objects")
	if rep, err := empty.Sweep(SweepSpec{}); err != nil || rep.Kept != 0 {
		t.Fatalf("empty sweep = %+v, %v", rep, err)
	}
}

func TestBlobStoreConcurrentSameDigestPut(t *testing.T) {
	s := NewBlobStore(NewMem(), "objects")
	data := []byte("shared content")
	digest := DigestBytes(data)
	// Two writers stream the same content concurrently; both commits
	// succeed (one wins the rename, one detects the existing blob) and the
	// stored bytes are intact.
	w1, err := s.writer(digest)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.writer(digest)
	if err != nil {
		t.Fatal(err)
	}
	w1.Write(data)
	w2.Write(data)
	won1, err := w1.commit()
	if err != nil {
		t.Fatal(err)
	}
	won2, err := w2.commit()
	if err != nil {
		t.Fatal(err)
	}
	if won1 == won2 {
		t.Fatalf("exactly one writer should win: %v %v", won1, won2)
	}
	rc, err := s.Open(digest)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(rc)
	rc.Close()
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("blob corrupted by concurrent puts")
	}
	if _, staging, _, _ := s.List(); len(staging) != 0 {
		t.Fatalf("staging residue after both commits: %v", staging)
	}
}

func TestBlobStoreOnOSBackend(t *testing.T) {
	b, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewBlobStore(b, "objects")
	digest, written, err := putBytes(s, []byte("os-backed blob"))
	if err != nil || !written {
		t.Fatalf("put = %v, %v", written, err)
	}
	rc, err := s.Ranges(digest, false)(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(rc)
	rc.Close()
	if got.String() != "backed" {
		t.Fatalf("range read = %q", got.String())
	}
}

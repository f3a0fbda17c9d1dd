package storage

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// streamCases runs streaming conformance over both backends.
func streamCases(t *testing.T, mk func(t *testing.T) Backend) {
	t.Helper()

	t.Run("create-chunked-then-open", func(t *testing.T) {
		b := mk(t)
		w, err := b.Create("run/ckpt/model.ltsf")
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for i := 0; i < 10; i++ {
			chunk := bytes.Repeat([]byte{byte('a' + i)}, 100)
			want.Write(chunk)
			if _, err := w.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := b.Open("run/ckpt/model.ltsf")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("streamed roundtrip: got %d bytes, want %d", len(got), want.Len())
		}
		// The streamed file is indistinguishable from a WriteFile one.
		whole, err := b.ReadFile("run/ckpt/model.ltsf")
		if err != nil || !bytes.Equal(whole, want.Bytes()) {
			t.Fatalf("ReadFile after Create: %v", err)
		}
	})

	t.Run("create-replaces", func(t *testing.T) {
		b := mk(t)
		b.WriteFile("f", []byte("old contents, longer than the new ones"))
		w, _ := b.Create("f")
		w.Write([]byte("new"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := b.ReadFile("f")
		if string(got) != "new" {
			t.Fatalf("got %q", got)
		}
	})

	t.Run("open-missing", func(t *testing.T) {
		b := mk(t)
		if _, err := b.Open("nope"); err == nil {
			t.Fatal("expected error")
		}
	})
}

func TestOSBackendStreaming(t *testing.T) {
	streamCases(t, func(t *testing.T) Backend { return newTestOSBackend(t) })
}

func TestMemBackendStreaming(t *testing.T) {
	streamCases(t, func(t *testing.T) Backend { return NewMem() })
}

func TestMeterStreaming(t *testing.T) {
	streamCases(t, func(t *testing.T) Backend { return NewMeter(NewMem(), Lustre()) })
}

// A streamed write/read must be charged exactly like a whole-file one of
// the same size: one file, same bytes, same simulated time.
func TestMeterStreamChargesMatchWholeFile(t *testing.T) {
	p := Lustre()
	whole := NewMeter(NewMem(), p)
	if err := whole.WriteFile("f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := whole.ReadFile("f"); err != nil {
		t.Fatal(err)
	}

	streamed := NewMeter(NewMem(), p)
	w, err := streamed.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := streamed.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	r.Close()

	a, b := whole.Stats(), streamed.Stats()
	if a.FilesWritten != b.FilesWritten || a.FilesRead != b.FilesRead {
		t.Fatalf("file counts differ: %+v vs %+v", a, b)
	}
	if a.BytesWritten != b.BytesWritten || a.BytesRead != b.BytesRead {
		t.Fatalf("byte counts differ: %+v vs %+v", a, b)
	}
	// Chunked SimTime accrues per chunk with float rounding; allow 1µs.
	if d := a.SimTime - b.SimTime; d < -1000 || d > 1000 {
		t.Fatalf("SimTime differs: %v vs %v", a.SimTime, b.SimTime)
	}
}

func TestSpoolRoundtrip(t *testing.T) {
	payload := bytes.Repeat([]byte("spool"), 1000)
	size := int64(len(payload))
	for _, tc := range []struct {
		name  string
		spool func(t *testing.T) Spool
		file  bool
	}{
		{"mem", func(t *testing.T) Spool { return mustSpool(t)(NewSpool(NewMem())) }, false},
		{"os", func(t *testing.T) Spool { return mustSpool(t)(NewSpool(newTestOSBackend(t))) }, true},
		{"meter-over-os", func(t *testing.T) Spool {
			return mustSpool(t)(NewSpool(NewMeter(newTestOSBackend(t), Lustre())))
		}, true},
		{"pooled", func(t *testing.T) Spool { return mustSpool(t)(NewBufferPool(size).Spool(size)) }, false},
		{"budget-exhausted", func(t *testing.T) Spool {
			pool := NewBufferPool(size)
			held := mustSpool(t)(pool.Spool(size))
			t.Cleanup(func() { held.Release() })
			return mustSpool(t)(pool.Spool(size))
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spool(t)
			fs, isFile := s.(*fileSpool)
			if isFile != tc.file {
				t.Fatalf("spool is %T, want file-backed = %v", s, tc.file)
			}
			if _, err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
			if s.Len() != size {
				t.Fatalf("Len = %d", s.Len())
			}
			r1, err := s.Open()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := s.Open()
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range []io.ReadCloser{r1, r2} {
				got, err := io.ReadAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("reader %d: spool roundtrip mismatch", i+1)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ { // idempotent
				if err := s.Release(); err != nil {
					t.Fatalf("Release #%d: %v", i+1, err)
				}
			}
			if _, err := s.Write(payload); err == nil {
				t.Fatal("Write after Release succeeded")
			}
			if _, err := s.Open(); err == nil {
				t.Fatal("Open after Release succeeded")
			}
			if isFile {
				if _, err := os.Stat(fs.f.Name()); !os.IsNotExist(err) {
					t.Fatalf("temp file %s survived Release: %v", fs.f.Name(), err)
				}
			}
		})
	}
}

func mustSpool(t *testing.T) func(Spool, error) Spool {
	return func(s Spool, err error) Spool {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestBufferPoolBestFit(t *testing.T) {
	pool := NewBufferPool(0)
	big, small := mustSpool(t)(pool.Spool(4096)), mustSpool(t)(pool.Spool(1024))
	big.Release()
	small.Release()
	s := mustSpool(t)(pool.Spool(512))
	defer s.Release()
	if got := cap(s.(*memSpool).data); got != 1024 {
		t.Fatalf("pool handed out a %d-byte buffer for 512 bytes, want the 1024-byte one", got)
	}
	if st := pool.Stats(); st.Reused != 1 || st.Allocated != 2 || st.Spools != 3 || st.FileSpools != 0 {
		t.Fatalf("stats = %+v, want 1 reused of 3 spools, 2 allocated", st)
	}
}

func TestSpoolIsUncharged(t *testing.T) {
	m := NewMeter(NewMem(), Lustre())
	s, err := NewSpool(m)
	if err != nil {
		t.Fatal(err)
	}
	s.Write(make([]byte, 4096))
	r, _ := s.Open()
	io.ReadAll(r)
	r.Close()
	if st := m.Stats(); st.BytesWritten != 0 || st.BytesRead != 0 || st.FilesWritten != 0 {
		t.Fatalf("spool traffic was metered: %+v", st)
	}
}

func newTestOSBackend(t *testing.T) *OS {
	t.Helper()
	b, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

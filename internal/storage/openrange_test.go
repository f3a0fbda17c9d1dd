package storage

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"
)

// openRangeBackends builds one of each rangeable backend over the same file.
func openRangeBackends(t *testing.T, data []byte) map[string]Backend {
	t.Helper()
	osb, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMem()
	backends := map[string]Backend{
		"os":    osb,
		"mem":   mem,
		"meter": NewMeter(NewMem(), LocalNVMe()),
		"fault": NewFault(NewMem()),
	}
	for name, b := range backends {
		if err := b.WriteFile("f", data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return backends
}

func TestOpenRangeReadsExactExtent(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for name, b := range openRangeBackends(t, data) {
		for _, ext := range [][2]int64{{0, 4096}, {100, 300}, {4095, 1}, {4096, 0}, {0, 0}} {
			r, err := b.OpenRange("f", ext[0], ext[1])
			if err != nil {
				t.Fatalf("%s: open %v: %v", name, ext, err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				t.Fatalf("%s: read %v: %v", name, ext, err)
			}
			if !bytes.Equal(got, data[ext[0]:ext[0]+ext[1]]) {
				t.Fatalf("%s: extent %v delivered wrong bytes", name, ext)
			}
		}
	}
}

func TestOpenRangeRejectsEscapingExtents(t *testing.T) {
	data := make([]byte, 64)
	for name, b := range openRangeBackends(t, data) {
		for _, ext := range [][2]int64{{-1, 4}, {0, -1}, {0, 65}, {65, 0}, {60, 5}, {1 << 62, 1 << 62}} {
			if r, err := b.OpenRange("f", ext[0], ext[1]); err == nil {
				r.Close()
				t.Fatalf("%s: extent %v accepted (file is 64 bytes)", name, ext)
			}
		}
		if _, err := b.OpenRange("missing", 0, 0); err == nil {
			t.Fatalf("%s: missing file accepted", name)
		}
	}
}

// The accounting-granularity regression the raw-copy path depends on:
// draining one extent through OpenRange charges a single open latency (like
// Open), however many chunked Reads it takes — whereas the same bytes
// fetched as N ReadAt calls charge N open latencies. Both models are
// correct for their use (lazy isolated tensor reads vs. sectioned copies);
// the sectioned path must not inherit ReadAt's per-call charge.
func TestOpenRangeAmortizesOpenLatency(t *testing.T) {
	const total = 1 << 20
	const chunk = 64 << 10
	prof := Lustre()
	data := make([]byte, total)

	m := NewMeter(NewMem(), prof)
	if err := m.Backend.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}

	r, err := m.OpenRange("f", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	chunks := 0
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			chunks++
		}
		if err != nil {
			break
		}
	}
	r.Close()
	if chunks != total/chunk {
		t.Fatalf("drained %d chunks, want %d", chunks, total/chunk)
	}
	rangeStats := m.Stats()

	wantRange := prof.OpenLatency
	for i := 0; i < chunks; i++ {
		wantRange += prof.ReadChunkTime(chunk)
	}
	if rangeStats.SimTime != wantRange {
		t.Fatalf("OpenRange SimTime %v, want one open latency + bandwidth = %v", rangeStats.SimTime, wantRange)
	}
	if rangeStats.FilesRead != 1 || rangeStats.BytesRead != total {
		t.Fatalf("OpenRange counters %+v, want 1 file / %d bytes", rangeStats, total)
	}

	// The same extent as chunked ReadAt calls: one full ReadTime (open
	// latency included) per call.
	m.Reset()
	for off := int64(0); off < total; off += chunk {
		if err := m.ReadAt("f", off, buf); err != nil {
			t.Fatal(err)
		}
	}
	readAtStats := m.Stats()
	var wantReadAt time.Duration
	for i := 0; i < chunks; i++ {
		wantReadAt += prof.ReadTime(chunk)
	}
	if readAtStats.SimTime != wantReadAt {
		t.Fatalf("ReadAt SimTime %v, want %v", readAtStats.SimTime, wantReadAt)
	}
	if rangeStats.SimTime >= readAtStats.SimTime {
		t.Fatalf("sectioned read (%v) should be cheaper than %d ReadAt calls (%v)",
			rangeStats.SimTime, chunks, readAtStats.SimTime)
	}
}

// OpenRange under the fault injector's short-read mode must still deliver
// the exact extent; sectioned reads are never fault points.
func TestFaultOpenRangeShortReadsAndNoFaultPoints(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	f := NewFault(NewMem())
	if err := f.Backend.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	f.SetShortReads(true)
	f.FailAt(1) // armed, but reads must never trip it
	r, err := f.OpenRange("f", 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := r.Read(buf)
	if n > 7 {
		t.Fatalf("short-read mode delivered %d bytes in one call", n)
	}
	rest, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := append(buf[:n], rest...)
	if !bytes.Equal(got, data[10:510]) {
		t.Fatal("short reads corrupted the extent")
	}
	if f.Crashed() || f.Ops() != 0 {
		t.Fatalf("sectioned read consumed fault points: ops=%d crashed=%v", f.Ops(), f.Crashed())
	}
}

func TestCopyFileStreamsVerbatim(t *testing.T) {
	data := make([]byte, 300_000) // several default-free chunks at 64 KiB
	for i := range data {
		data[i] = byte(i * 13)
	}
	src := NewMem()
	if err := src.WriteFile("a/in", data); err != nil {
		t.Fatal(err)
	}
	dst := NewMeter(NewMem(), LocalNVMe())
	n, err := CopyFile(dst, "b/out", src, "a/in", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("copied %d bytes, want %d", n, len(data))
	}
	got, err := dst.ReadFile("b/out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy not verbatim")
	}
	// The write side is charged as one streamed file.
	if s := dst.Stats(); s.FilesWritten != 1 || s.BytesWritten != int64(len(data)) {
		t.Fatalf("dst meter %+v, want 1 file / %d bytes", s, len(data))
	}
	if _, err := CopyFile(dst, "b/out2", src, "a/missing", 0); err == nil {
		t.Fatal("copying a missing file succeeded")
	}
}

// getLog counts the read requests that reach the backend, and those that
// failed.
type getLog struct {
	Backend
	gets, failed int
}

func (l *getLog) Unwrap() Backend { return l.Backend }

func (l *getLog) note(err error) {
	l.gets++
	if err != nil {
		l.failed++
	}
}

func (l *getLog) Open(name string) (io.ReadCloser, error) {
	rc, err := l.Backend.Open(name)
	l.note(err)
	return rc, err
}

func (l *getLog) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	rc, err := l.Backend.OpenRange(name, off, n)
	l.note(err)
	return rc, err
}

// TestBlobOpenRangeRequests: a whole-payload read of a blob costs one request
// per stored object it needs — the blob, plus its xor ancestors — whichever
// way the blob is stored, when the caller's record of the codec is right; a
// stale record costs requests, never bytes; and a range the stored object
// cannot hold fails at open, before anything is sized to it.
func TestBlobOpenRangeRequests(t *testing.T) {
	grand, parent := deltaPayload(200_000, 97, 21)
	_, child := deltaPayload(200_000, 89, 21)
	plane := make([]byte, 40_000)
	for i := range plane {
		plane[i] = byte(i%2) * 0x3f
	}
	noise := make([]byte, 50_000)
	rand.New(rand.NewSource(22)).Read(noise)
	escaped := append([]byte(blobMagic), noise[:500]...)

	for bname, base := range map[string]Backend{"mem": NewMem(), "objstore": NewObjStore()} {
		log := &getLog{Backend: base}
		s := NewBlobStore(log, "objects")
		put := func(raw []byte, opts BlobPutOptions) string {
			t.Helper()
			digest := DigestBytes(raw)
			if _, err := s.PutStreamOpts(digest, opts, func(w io.Writer) (int64, error) {
				n, err := w.Write(raw)
				return int64(n), err
			}); err != nil {
				t.Fatal(err)
			}
			return digest
		}
		g := put(grand, BlobPutOptions{})
		p := put(parent, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: g})
		cases := []struct {
			what  string
			raw   []byte
			opts  BlobPutOptions
			codec BlobCodec
			// objects is how many stored objects a whole read touches.
			objects int
		}{
			{"raw", noise, BlobPutOptions{}, CodecRaw, 1},
			{"short raw", []byte("ab"), BlobPutOptions{}, CodecRaw, 1},
			{"plane", plane, BlobPutOptions{Codec: CodecPlane, Width: 2}, CodecPlane, 1},
			{"xor depth 2", child, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: p}, CodecXORParent, 3},
			{"stored escape", escaped, BlobPutOptions{}, CodecStored, 1},
		}
		for _, c := range cases {
			digest := put(c.raw, c.opts)
			if meta, err := s.Meta(digest); err != nil || meta.Codec != c.codec {
				t.Fatalf("%s/%s: fixture stored as %v (%v), want %v", bname, c.what, meta.Codec, err, c.codec)
			}
			size := int64(len(c.raw))
			read := func(open func(string, int64, int64) (io.ReadCloser, error), off, n int64) (gets, failed int) {
				t.Helper()
				log.gets, log.failed = 0, 0
				rc, err := open(digest, off, n)
				if err != nil {
					t.Fatalf("%s/%s: open [%d,+%d): %v", bname, c.what, off, n, err)
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err != nil || !bytes.Equal(got, c.raw[off:off+n]) {
					t.Fatalf("%s/%s: range [%d,+%d) delivered wrong bytes (%v)", bname, c.what, off, n, err)
				}
				return log.gets, log.failed
			}
			right, stale := s.OpenRange, s.OpenRangeCoded
			if c.codec != CodecRaw {
				right, stale = stale, right
			}
			// (A payload shorter than the magic cannot be told from a
			// container's head by a ranged read: it is sniffed first.)
			if gets, failed := read(right, 0, size); size >= int64(len(blobMagic)) && (gets != c.objects || failed != 0) {
				t.Errorf("%s/%s: whole read with the right hint: %d requests (%d failed), want %d and none",
					bname, c.what, gets, failed, c.objects)
			}
			// A stale hint: a raw blob recorded coded is read whole and served;
			// a coded blob recorded raw costs the ranged attempt and the sniff
			// on top of the decode.
			wantStale := c.objects
			if c.codec != CodecRaw {
				wantStale += 2
			}
			if gets, _ := read(stale, 0, size); size >= int64(len(blobMagic)) && gets != wantStale {
				t.Errorf("%s/%s: whole read with a stale hint: %d requests, want %d", bname, c.what, gets, wantStale)
			}
			if size > 8 {
				read(right, 3, size-5)
				read(stale, 3, size-5)
				read(right, 0, 4)
			}
			// A size a manifest merely claims fails at open, either way in.
			for _, open := range []func(string, int64, int64) (io.ReadCloser, error){s.OpenRange, s.OpenRangeCoded} {
				for _, ext := range [][2]int64{{0, size + 1}, {1, size}, {0, 1 << 50}, {size + 1, 0}} {
					if rc, err := open(digest, ext[0], ext[1]); err == nil {
						rc.Close()
						t.Errorf("%s/%s: range [%d,+%d) of a %d-byte payload accepted", bname, c.what, ext[0], ext[1], size)
					}
				}
			}
		}
		if _, err := s.OpenRange(DigestBytes([]byte("absent")), 0, 16); !IsNotExist(err) {
			t.Errorf("%s: missing blob: %v, want not-exist", bname, err)
		}
	}
}

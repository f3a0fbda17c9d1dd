package storage

import (
	"io"
	"sync"
	"time"
)

// Profile models a storage system's first-order performance: per-file open
// latency plus streaming bandwidth. It is deliberately simple — the paper's
// timing tables depend on byte volume, file counts and load order, all of
// which this captures.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// ReadBandwidth and WriteBandwidth are in bytes/second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// OpenLatency is charged once per file operation (open+metadata).
	OpenLatency time.Duration
}

// Lustre returns a profile resembling the paper's testbed: a Lustre
// filesystem over InfiniBand shared by an 8-GPU node. Bandwidths are chosen
// so the analytic checkpoint times land in the ranges Tables 3/6/7 report
// (§ EXPERIMENTS.md documents the calibration).
func Lustre() Profile {
	return Profile{
		Name:           "lustre-ib",
		ReadBandwidth:  5.0e9,
		WriteBandwidth: 3.8e9,
		OpenLatency:    3 * time.Millisecond,
	}
}

// LocalNVMe returns a fast local-disk profile for comparisons.
func LocalNVMe() Profile {
	return Profile{
		Name:           "local-nvme",
		ReadBandwidth:  7.0e9,
		WriteBandwidth: 5.0e9,
		OpenLatency:    100 * time.Microsecond,
	}
}

// ReadTime returns the modelled time to read n bytes as one file.
func (p Profile) ReadTime(n int64) time.Duration {
	return p.OpenLatency + p.ReadChunkTime(n)
}

// WriteTime returns the modelled time to write n bytes as one file.
func (p Profile) WriteTime(n int64) time.Duration {
	return p.OpenLatency + p.WriteChunkTime(n)
}

// ReadChunkTime returns the bandwidth-only time to read n bytes mid-stream
// (no open latency; streamed reads charge OpenLatency once at Open).
func (p Profile) ReadChunkTime(n int64) time.Duration {
	return time.Duration(float64(n) / p.ReadBandwidth * float64(time.Second))
}

// WriteChunkTime returns the bandwidth-only time to write n bytes mid-stream.
func (p Profile) WriteChunkTime(n int64) time.Duration {
	return time.Duration(float64(n) / p.WriteBandwidth * float64(time.Second))
}

// Stats aggregates I/O activity observed by a Meter.
type Stats struct {
	FilesRead    int64
	FilesWritten int64
	BytesRead    int64
	BytesWritten int64
	// SimTime is the modelled wall time of all I/O under the profile,
	// charged as if operations were serial (the paper's per-rank loads are
	// serialised by the shared filesystem; parallel loading helps CPU-side
	// deserialisation, which the merge engine accounts separately).
	SimTime time.Duration
}

// Add returns the sum of two stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		FilesRead:    s.FilesRead + o.FilesRead,
		FilesWritten: s.FilesWritten + o.FilesWritten,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
		SimTime:      s.SimTime + o.SimTime,
	}
}

// Meter wraps a Backend, counting traffic and accruing simulated time under
// a Profile. Byte volumes can be scaled: the live system moves scaled-down
// tensors, while SimTime should reflect the true model's bytes. Setting
// ByteScale to the true-to-sim parameter ratio accomplishes that.
type Meter struct {
	Backend // Stat, List, Exists, Remove and Rename pass through uncharged (metadata only)
	Profile Profile
	// ByteScale multiplies observed byte counts when charging SimTime
	// (default 1).
	ByteScale float64

	mu    sync.Mutex
	stats Stats
}

// NewMeter wraps a backend with instrumentation.
func NewMeter(b Backend, p Profile) *Meter {
	return &Meter{Backend: b, Profile: p, ByteScale: 1}
}

// Stats returns a snapshot of accumulated counters.
func (m *Meter) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Reset zeroes the counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

func (m *Meter) scale(n int64) int64 {
	if m.ByteScale == 0 || m.ByteScale == 1 {
		return n
	}
	return int64(float64(n) * m.ByteScale)
}

func (m *Meter) chargeRead(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.FilesRead++
	m.stats.BytesRead += n
	m.stats.SimTime += m.Profile.ReadTime(m.scale(n))
}

func (m *Meter) chargeWrite(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.FilesWritten++
	m.stats.BytesWritten += n
	m.stats.SimTime += m.Profile.WriteTime(m.scale(n))
}

// WriteFile implements Backend. The attempt is charged whether or not it
// succeeds: a PUT that fails server-side still moved its bytes over the
// link, and a retry loop above us must pay open latency and bandwidth
// again on every attempt or the cost model silently flatters retries.
func (m *Meter) WriteFile(name string, data []byte) error {
	err := m.Backend.WriteFile(name, data)
	m.chargeWrite(int64(len(data)))
	return err
}

// AddSimTime adds d to the accumulated simulated time. Retry wrappers use
// it to bill backoff delays to the sim clock instead of sleeping.
func (m *Meter) AddSimTime(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.SimTime += d
}

// ReadFile implements Backend.
func (m *Meter) ReadFile(name string) ([]byte, error) {
	data, err := m.Backend.ReadFile(name)
	if err != nil {
		return nil, err
	}
	m.chargeRead(int64(len(data)))
	return data, nil
}

// ReadAt implements Backend.
func (m *Meter) ReadAt(name string, off int64, p []byte) error {
	if err := m.Backend.ReadAt(name, off, p); err != nil {
		return err
	}
	m.chargeRead(int64(len(p)))
	return nil
}

// Create implements Backend. The stream is charged exactly like a WriteFile
// of the same total size: one file + OpenLatency at Create, bytes and
// bandwidth time per chunk as they are written.
func (m *Meter) Create(name string) (io.WriteCloser, error) {
	w, err := m.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.FilesWritten++
	m.stats.SimTime += m.Profile.OpenLatency
	m.mu.Unlock()
	return &meteredWriter{m: m, w: w}, nil
}

// Open implements Backend with the same per-chunk accounting as Create.
func (m *Meter) Open(name string) (io.ReadCloser, error) {
	r, err := m.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.FilesRead++
	m.stats.SimTime += m.Profile.OpenLatency
	m.mu.Unlock()
	return &meteredReader{m: m, r: r}, nil
}

// OpenRange implements Backend with the same per-chunk accounting as Open:
// one file and one OpenLatency at open, bandwidth time per chunk as bytes
// drain. This is deliberately NOT ReadAt's accounting — ReadAt charges a
// full ReadTime (open latency included) per call, which is right for
// isolated lazy tensor reads but would overcharge a sectioned copy that
// drains one extent in many chunks.
func (m *Meter) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	r, err := m.Backend.OpenRange(name, off, n)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.stats.FilesRead++
	m.stats.SimTime += m.Profile.OpenLatency
	m.mu.Unlock()
	return &meteredReader{m: m, r: r}, nil
}

type meteredWriter struct {
	m *Meter
	w io.WriteCloser
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	if n > 0 {
		w.m.mu.Lock()
		w.m.stats.BytesWritten += int64(n)
		w.m.stats.SimTime += w.m.Profile.WriteChunkTime(w.m.scale(int64(n)))
		w.m.mu.Unlock()
	}
	return n, err
}

func (w *meteredWriter) Close() error { return w.w.Close() }

type meteredReader struct {
	m *Meter
	r io.ReadCloser
}

func (r *meteredReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 {
		r.m.mu.Lock()
		r.m.stats.BytesRead += int64(n)
		r.m.stats.SimTime += r.m.Profile.ReadChunkTime(r.m.scale(int64(n)))
		r.m.mu.Unlock()
	}
	return n, err
}

func (r *meteredReader) Close() error { return r.r.Close() }

// Unwrap exposes the wrapped backend to the capability walk (publish.go);
// spool traffic stays uncharged, it is node-local staging.
func (m *Meter) Unwrap() Backend { return m.Backend }

// Compose forwards multipart completion, charged as a single metadata-ish
// operation: one file written plus one open latency. The payload bytes were
// already charged when the parts uploaded; a server-side concatenation
// moves no client bandwidth.
func (m *Meter) Compose(dst string, parts ...string) error {
	err := Compose(m.Backend, dst, parts...)
	m.mu.Lock()
	m.stats.FilesWritten++
	m.stats.SimTime += m.Profile.OpenLatency
	m.mu.Unlock()
	return err
}

// Zero-decode raw access to container payloads.
//
// LTSF headers already carry every tensor's extent and CRC32, so a merge
// that takes a tensor verbatim from one source does not need to decode,
// dtype-check, re-encode and re-CRC it: the payload bytes can be spliced
// from the source extent into the output container and the source checksum
// carried forward untouched. RawTensor/OpenRaw expose the read side;
// LTSFWriter.AppendRaw is the write side. The bytes produced are identical
// to the decode path's (WriteTensor of the decoded tensor), which the
// merge golden tests pin.

package ckpt

import (
	"fmt"
	"io"

	"llmtailor/internal/tensor"
)

// RawTensor describes one tensor's stored payload: everything AppendRaw
// needs to splice it into another container without decoding a byte.
type RawTensor struct {
	// Name is the tensor's name in the container header.
	Name string
	// DType is the stored dtype string (e.g. "bf16").
	DType string
	// Shape is the stored shape.
	Shape []int
	// Size is the payload extent's byte length.
	Size int64
	// CRC32 is the source header's checksum over the payload, carried
	// forward verbatim by AppendRaw.
	CRC32 uint32
	// Offset is the payload extent's absolute offset within the source
	// file (header prefix included).
	Offset int64
}

// RawTensor returns the named tensor's payload extent and header CRC. The
// metadata was bounds-checked against the real file size at OpenLTSF, so a
// corrupt header surfaces there (or here as a missing tensor), never as a
// panic downstream.
func (r *LTSFReader) RawTensor(name string) (RawTensor, error) {
	meta, ok := r.hdr.Tensors[name]
	if !ok {
		return RawTensor{}, fmt.Errorf("ckpt: %s: no tensor %q", r.name, name)
	}
	return RawTensor{
		Name:   name,
		DType:  meta.DType,
		Shape:  append([]int(nil), meta.Shape...),
		Size:   meta.Offsets[1] - meta.Offsets[0],
		CRC32:  meta.CRC32,
		Offset: r.payloadOff + meta.Offsets[0],
	}, nil
}

// OpenRaw opens a streaming reader over the named tensor's payload extent.
// The bytes are delivered exactly as stored — no CRC verification, no
// decode; integrity travels with the carried-forward checksum, which the
// eventual consumer (ReadTensor on the spliced container) still verifies.
func (r *LTSFReader) OpenRaw(name string) (RawTensor, io.ReadCloser, error) {
	rt, err := r.RawTensor(name)
	if err != nil {
		return RawTensor{}, nil, err
	}
	rc, err := r.backend.OpenRange(r.name, rt.Offset, rt.Size)
	if err != nil {
		return RawTensor{}, nil, fmt.Errorf("ckpt: %s: open raw tensor %q: %w", r.name, name, err)
	}
	return rt, rc, nil
}

// AppendRaw splices a pre-encoded tensor payload into the container and
// records its metadata with the source CRC carried forward, skipping the
// encode and checksum passes WriteTensor performs. Exactly rt.Size bytes
// are consumed from src, and the metadata is validated before any byte is
// spooled, so a corrupt source extent cannot poison the output container
// silently.
func (w *LTSFWriter) AppendRaw(rt RawTensor, src io.Reader) error {
	rt.Shape = append([]int(nil), rt.Shape...)
	return w.appendPayload(rt, true, func(sink io.Writer) (int64, error) {
		return spliceTo(sink, src, rt.Size, w.buf)
	})
}

// memExtent matches in-memory sources whose exact remaining length is
// known (bytes.Reader, the Mem backend's range readers).
type memExtent interface {
	io.WriterTo
	Len() int
}

// spliceTo copies exactly size bytes from src into sink. An in-memory
// source of exactly that length is handed over in one wide write (WriteTo);
// anything else streams through buf-sized chunks behind a LimitReader.
func spliceTo(sink io.Writer, src io.Reader, size int64, buf []byte) (int64, error) {
	if me, ok := src.(memExtent); ok && int64(me.Len()) == size {
		return me.WriteTo(sink)
	}
	return io.CopyBuffer(sink, io.LimitReader(src, size), buf)
}

// RawEligible reports whether the named tensor can be raw-copied into an
// output of the given dtype: present, and stored in exactly that dtype (a
// conversion forces the decode path).
func (r *LTSFReader) RawEligible(name string, out tensor.DType) bool {
	meta, ok := r.hdr.Tensors[name]
	if !ok {
		return false
	}
	dt, err := tensor.ParseDType(meta.DType)
	return err == nil && dt == out
}

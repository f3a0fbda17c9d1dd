// Zero-decode raw access to container payloads.
//
// LTSF headers already carry every tensor's extent and CRC32, so a merge
// that takes a tensor verbatim from one source does not need to decode,
// dtype-check, re-encode and re-CRC it: the payload bytes can be spliced
// from the source extent into the output container and the source checksum
// carried forward untouched. Weights.RawTensor/OpenRaw (read.go) expose the
// read side, over either checkpoint layout — a blob holds exactly the payload
// a container extent does; LTSFWriter.AppendRaw is the write side. The bytes
// produced are identical to the decode path's (WriteTensor of the decoded
// tensor), which the merge golden tests pin.

package ckpt

import "io"

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

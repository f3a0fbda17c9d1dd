// Zero-decode raw access to container payloads.
//
// LTSF headers already carry every tensor's extent and CRC32, so a merge
// that takes a tensor verbatim from one source does not need to decode,
// dtype-check, re-encode and re-CRC it: the payload bytes are replayed from
// the source extent into the output container — checked against the source
// checksum on the way (payload.replays) — and the checksum carried forward.
// Weights.RawTensor (read.go) describes the read side, over either checkpoint
// layout — a blob holds exactly the payload a container extent does;
// ltsfWriter.appendPayload with a carried CRC is the write side. The bytes
// produced are identical to the decode path's (the decoded tensor encoded
// again), which the merge golden tests pin.

package ckpt

// RawTensor describes one tensor's stored payload: everything a container
// writer needs to splice it into another container without decoding a byte.
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
	// forward verbatim by a splice.
	CRC32 uint32
}

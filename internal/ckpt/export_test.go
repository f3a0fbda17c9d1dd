package ckpt

// What the external tests (package ckpt_test), which may import the packages
// built on this one, borrow from the internal ones.
var (
	BuildOptim         = buildOptim
	TamperGroup        = tamperGroup
	WriteShardManifest = writeShardManifest
)

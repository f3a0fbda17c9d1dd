// Capability questions and the one atomic small-file publish.
//
// Atomic Rename, multipart Compose and file-backed spool space belong to the
// storage at the bottom of a wrapper stack. There is one rule for asking: a
// wrapper (Meter, Fault, Retry, the commit transaction's recording backend)
// declares Unwrap() Backend and no probe, and RenameSupported,
// ComposeSupported, Compose and NewSpool walk that chain from the outside in;
// the first backend on the way that answers the question itself (ObjStore,
// OS, a tracing decorator with its own probe methods) answers it.

package storage

// unwrap returns the backend b wraps, nil when b is the bottom of its stack.
func unwrap(b Backend) Backend {
	if u, ok := b.(interface{ Unwrap() Backend }); ok {
		return u.Unwrap()
	}
	return nil
}

// RenameSupported reports whether a backend implements atomic Rename;
// backends without the probe are rename-capable (every pre-object-store
// Backend was). The platform forks branch on it: ckpt's commit transaction
// (staging directory vs in-place build), the blob writer's stream+rename vs
// spool+PUT, PublishFile.
func RenameSupported(b Backend) bool {
	for ; b != nil; b = unwrap(b) {
		if p, ok := b.(interface{ RenameSupported() bool }); ok {
			return p.RenameSupported()
		}
	}
	return true
}

// PublishFile replaces the small file final with data so that a reader — or
// a crash at any instant — sees the previous content or the new, never a
// prefix: stage is written whole and renamed over final where the backend
// renames; where it does not, final is PUT directly (a whole-object PUT
// replaces atomically by itself) and stage is never touched. A crash between
// the two steps leaves stage behind as residue its name identifies
// (latest.tmp, *.ref.tmp, COMMITTED.tmp); a replay overwrites it. Every
// pointer, journal record and marker overwrite goes through here.
func PublishFile(b Backend, stage, final string, data []byte) error {
	if !RenameSupported(b) {
		return b.WriteFile(final, data)
	}
	if err := b.WriteFile(stage, data); err != nil {
		return err
	}
	return b.Rename(stage, final)
}

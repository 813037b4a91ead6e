package campaign

// FullCopySnapshots selects the full-copy checkpoint engine (every
// checkpoint a complete RAM copy, every injection on a fresh machine): the
// differential reference the copy-on-write golden-compat test compares
// against.
func FullCopySnapshots() Option { return func(e *Engine) { e.fullCopy = true } }

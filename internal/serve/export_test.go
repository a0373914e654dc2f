package serve

// MaxRestoreBytes is the restore body bound the daemon serves with.
const MaxRestoreBytes = maxRestoreBytes

// SetRestoreLimit lowers s's restore body bound, so tests can probe it
// with real checkpoints of a few kilobytes.
func (s *Server) SetRestoreLimit(n int64) { s.restoreLimit = n }

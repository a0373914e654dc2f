package flowsim

import "dard/internal/sched"

// timer is one scheduled control-plane callback, queued by value in the
// engine's evq.Queue at its (at, seq) key. ref carries the checkpoint
// descriptor (snapshot.go): closures cannot be serialized, so a snapshot
// records (at, seq, ref) and restore rebuilds the closure from the
// descriptor.
type timer struct {
	ref sched.TimerRef
	fn  func()
}
